#include "exp/campaign.hh"

#include <cstdio>
#include <stdexcept>
#include <string_view>

#include "util/fnv.hh"

namespace cgp::exp
{

namespace
{

/** Join the non-empty labels of the chosen points with '+'. */
std::string
joinLabels(const std::vector<std::string> &labels,
           const SimConfig &config)
{
    std::string out;
    for (const auto &l : labels) {
        if (l.empty())
            continue;
        if (!out.empty())
            out += '+';
        out += l;
    }
    return out.empty() ? config.describe() : out;
}

} // anonymous namespace

std::vector<ExpandedConfig>
expandConfigs(const CampaignSpec &spec)
{
    std::vector<ExpandedConfig> out;

    if (spec.axes.empty()) {
        if (spec.explicitConfigs.empty()) {
            throw std::invalid_argument(
                "campaign '" + spec.name +
                "' has neither axes nor explicit configs");
        }
        if (!spec.explicitLabels.empty() &&
            spec.explicitLabels.size() !=
                spec.explicitConfigs.size()) {
            throw std::invalid_argument(
                "campaign '" + spec.name +
                "': explicitLabels/explicitConfigs length mismatch");
        }
        for (std::size_t i = 0; i < spec.explicitConfigs.size();
             ++i) {
            const SimConfig &c = spec.explicitConfigs[i];
            std::string label = spec.explicitLabels.empty()
                ? c.describe()
                : spec.explicitLabels[i];
            if (label.empty())
                label = c.describe();
            out.push_back({c, std::move(label)});
        }
        return out;
    }

    for (const ConfigAxis &axis : spec.axes) {
        if (axis.points.empty()) {
            throw std::invalid_argument("campaign '" + spec.name +
                                        "': axis '" + axis.name +
                                        "' has no points");
        }
    }

    // Cartesian: odometer with the first axis varying slowest.
    std::vector<std::size_t> idx(spec.axes.size(), 0);
    for (;;) {
        SimConfig c = spec.base;
        std::vector<std::string> labels;
        for (std::size_t a = 0; a < spec.axes.size(); ++a) {
            const AxisPoint &p = spec.axes[a].points[idx[a]];
            if (p.apply)
                p.apply(c);
            labels.push_back(p.label);
        }
        out.push_back({c, joinLabels(labels, c)});

        std::size_t a = spec.axes.size();
        while (a > 0) {
            --a;
            if (++idx[a] < spec.axes[a].points.size())
                break;
            idx[a] = 0;
            if (a == 0)
                return out;
        }
    }
}

std::vector<JobSpec>
expandJobs(const CampaignSpec &spec)
{
    if (spec.workloads.empty()) {
        throw std::invalid_argument("campaign '" + spec.name +
                                    "' has no workloads");
    }
    const std::vector<ExpandedConfig> configs = expandConfigs(spec);
    std::vector<JobSpec> jobs;
    jobs.reserve(spec.workloads.size() * configs.size());
    for (const std::string &w : spec.workloads) {
        for (const ExpandedConfig &c : configs) {
            JobSpec j;
            j.index = jobs.size();
            j.workload = w;
            j.config = c.config;
            j.label = c.label;
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
