package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
)

// metricDef names one metric as BENCHMARK.json declares it.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the metrics an edge controller asking for allocations would
// see; every workload reports all of them with tracing off.
//
// Rates that are 0 on a healthy run (failures, fallback answers, deadline
// misses) are reported as their complements, so no metric reads 0. On a
// 2-vCPU virtual machine the host's speed drifts by tens of percent from
// minute to minute, so the bounds are wide, and metrics that still spread
// by more than the widest bound between runs of the same code are measured
// and printed on standard error but not gated: latency p99 at lo and hi,
// p90 at hi, cold p90, write p95 and max_rate_rps (the highest rate whose
// window p90 stays within the 5 ms limit with no growing backlog; it moves
// with the host's speed). on_time_share_hi is the share of hi reads
// answered within that limit.
// cpu_us_per_req is the program's CPU time per request answered over the
// phases offered hi or more (the hi slices and the rate probes), taken over
// the middle half of those phases (see run.cpuPerRequest).
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"lat_p50_ms_lo", "ms", "lower", 0.25},
	{"lat_p90_ms_lo", "ms", "lower", 0.25},
	{"lat_p50_ms_hi", "ms", "lower", 0.25},
	{"on_time_share_hi", "share", "higher", 0.1},
	{"cpu_us_per_req", "us", "lower", 0.25},
	{"rss_mb", "MiB", "lower", 0.2},
	{"ok_share", "share", "higher", 0.01},
	{"policy_share", "share", "higher", 0.01},
	{"captured_importance", "share", "higher", 0.25},
	{"cold_p50_ms", "ms", "lower", 0.25},
	{"write_p50_ms", "ms", "lower", 0.25},
}

// perLayer are the traced run's metrics, named after the module they time.
var perLayer = []metricDef{
	{Name: "serve.http_self_us", Unit: "us", Better: "lower"},
	{Name: "serve.allocate_us", Unit: "us", Better: "lower"},
	{Name: "serve.allocate_self_us", Unit: "us", Better: "lower"},
	{Name: "serve.batch_size", Unit: "count", Better: "higher"},
	{Name: "serve.solo_share", Unit: "share", Better: "lower"},
	{Name: "serve.feedback_us", Unit: "us", Better: "lower"},
	{Name: "serve.refits", Unit: "count", Better: "lower"},
	{Name: "serve.cache_hit_ratio", Unit: "share", Better: "higher"},
	{Name: "serve.trainings", Unit: "count", Better: "lower"},
	{Name: "core.nearest_index_us", Unit: "us", Better: "lower"},
	{Name: "core.define_env_us", Unit: "us", Better: "lower"},
	{Name: "core.rollout_us_b1", Unit: "us", Better: "lower"},
	{Name: "core.rollout_us_bN", Unit: "us", Better: "lower"},
	{Name: "core.train_ms", Unit: "ms", Better: "lower"},
	{Name: "core.warm_start_share", Unit: "share", Better: "higher"},
	{Name: "core.early_stop_share", Unit: "share", Better: "higher"},
	{Name: "rl.observe_us", Unit: "us", Better: "lower"},
	{Name: "rl.train_steps", Unit: "count", Better: "lower"},
	{Name: "mathx.matmul_us", Unit: "us", Better: "lower"},
	{Name: "mathx.rollout_flops", Unit: "flop", Better: "lower"},
	{Name: "mathx.rollout_bytes", Unit: "B", Better: "lower"},
	{Name: "alloc.combine_scores_us", Unit: "us", Better: "lower"},
	{Name: "alloc.pack_us", Unit: "us", Better: "lower"},
	{Name: "alloc.fit_ms", Unit: "ms", Better: "lower"},
	{Name: "cluster.router_overhead_us", Unit: "us", Better: "lower"},
	{Name: "cluster.router_cpu_us_per_req", Unit: "us", Better: "lower"},
	{Name: "cluster.shard_share_min", Unit: "share", Better: "higher"},
	{Name: "cluster.retries", Unit: "count", Better: "lower"},
	{Name: "cluster.ejections", Unit: "count", Better: "lower"},
	{Name: "cluster.idle_cpu_ms_per_s", Unit: "ms/s", Better: "lower"},
	{Name: "cluster.gossip_msgs_per_s", Unit: "1/s", Better: "lower"},
	{Name: "cluster.ring_owner_ns", Unit: "ns", Better: "lower"},
	{Name: "experiments.scenario_build_ms", Unit: "ms", Better: "lower"},
	{Name: "trace.span_overhead_ns", Unit: "ns", Better: "lower"},
	{Name: "trace.child_gap_max", Unit: "share", Better: "lower"},
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// fill turns measured values into the result's metrics, in defs' names and
// units; a metric the run failed to produce is an error.
func fill(defs []metricDef, vals map[string]float64) (map[string]metricValue, error) {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		v, ok := vals[d.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v", d.Name, v)
		}
		out[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	return out, nil
}

func printResult(r result) error {
	b, err := json.Marshal(r)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(os.Stdout, string(b))
	return err
}
