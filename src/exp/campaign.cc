#include "exp/campaign.hh"

#include <cstdio>
#include <stdexcept>
#include <string_view>

#include "util/fnv.hh"

namespace cgp::exp
{

std::vector<JobSpec>
expandJobs(const CampaignSpec &spec)
{
    if (spec.workloads.empty()) {
        throw std::invalid_argument("campaign '" + spec.name +
                                    "' has no workloads");
    }
    if (spec.explicitConfigs.empty()) {
        throw std::invalid_argument("campaign '" + spec.name +
                                    "' has no configs");
    }
    if (!spec.explicitLabels.empty() &&
        spec.explicitLabels.size() != spec.explicitConfigs.size()) {
        throw std::invalid_argument(
            "campaign '" + spec.name +
            "': explicitLabels/explicitConfigs length mismatch");
    }
    std::vector<JobSpec> jobs;
    jobs.reserve(spec.workloads.size() * spec.explicitConfigs.size());
    for (const std::string &w : spec.workloads) {
        for (std::size_t i = 0; i < spec.explicitConfigs.size(); ++i) {
            JobSpec j;
            j.index = jobs.size();
            j.workload = w;
            j.config = spec.explicitConfigs[i];
            if (!spec.explicitLabels.empty())
                j.label = spec.explicitLabels[i];
            if (j.label.empty())
                j.label = j.config.describe();
            jobs.push_back(std::move(j));
        }
    }
    return jobs;
}

std::string
fingerprint(const CampaignSpec &spec,
            const std::vector<JobSpec> &jobs, std::string_view identity)
{
    // FNV-1a over the campaign identity, every job identity and what
    // the workloads were built from.
    std::uint64_t h = fnv1aBasis;
    const auto mix = [&h](std::string_view s) {
        h = fnv1a("\xff", fnv1a(s, h)); // 0xff ends each field
    };
    mix(spec.name);
    for (const JobSpec &j : jobs)
        mix(j.key());
    if (!identity.empty())
        mix(identity);
    char buf[20];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(h));
    return buf;
}

} // namespace cgp::exp
