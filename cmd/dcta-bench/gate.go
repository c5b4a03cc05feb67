package main

import (
	"fmt"
	"log"
	"os"

	"repro/internal/loadgen"
)

// runGate is the tail-latency regression gate: it replays the canonical
// baseline sweep (loadgen.BaselineOptions — same seed, scale, levels and
// request budgets that produced the committed BENCH_PR*.json) against an
// in-process server and fails if warm p99 or best throughput regressed past
// the slack. slackFlag < 0 means "not set on the command line", falling back
// to DCTA_BENCH_GATE_SLACK and then the 25% default — the env knob is the
// documented escape hatch for noisy shared runners.
func runGate(baselinePath string, seed int64, slackFlag float64, outJSON string) error {
	slack, err := loadgen.ResolveSlack(slackFlag, os.Getenv("DCTA_BENCH_GATE_SLACK"))
	if err != nil {
		return err
	}
	baseline, err := loadgen.LoadReport(baselinePath)
	if err != nil {
		return fmt.Errorf("baseline: %w", err)
	}
	opts := loadgen.BaselineOptions(seed)
	opts.Logf = log.New(os.Stdout, "", 0).Printf
	res, err := loadgen.Run(opts)
	if err != nil {
		return fmt.Errorf("gate sweep: %w", err)
	}
	cur := res.Report
	if outJSON != "" {
		if err := loadgen.WriteReport(outJSON, cur); err != nil {
			return err
		}
		fmt.Println("gate: wrote", outJSON)
	}

	fmt.Printf("gate: slack %.0f%%  (baseline %s)\n", slack*100, baselinePath)
	fmt.Printf("gate: warm p99    baseline %-12s current %-12s limit %s\n",
		loadgen.Ns(baseline.WarmP99Ns), loadgen.Ns(cur.WarmP99Ns), loadgen.Ns(baseline.WarmP99Ns*(1+slack)))
	fmt.Printf("gate: throughput  baseline %-12.0f current %-12.0f floor %.0f rps\n",
		baseline.BestThroughputRPS, cur.BestThroughputRPS, baseline.BestThroughputRPS/(1+slack))
	if baseline.ColdTrainP50Ns > 0 {
		fmt.Printf("gate: cold p50    baseline %-12s current %-12s limit %s\n",
			loadgen.Ns(baseline.ColdTrainP50Ns), loadgen.Ns(cur.ColdTrainP50Ns),
			loadgen.Ns(baseline.ColdTrainP50Ns*(1+slack)))
	}
	if cur.ValueParity > 0 {
		fmt.Printf("gate: value parity %.4f (collapsed cold-start vs full-budget scratch)\n", cur.ValueParity)
	}

	violations := loadgen.Gate(cur, baseline, slack)
	if len(violations) == 0 {
		fmt.Println("gate: PASS")
		return nil
	}
	for _, v := range violations {
		fmt.Fprintln(os.Stderr, "gate: FAIL:", v)
	}
	return fmt.Errorf("%d tail-latency gate violation(s); rerun with -gate-slack or DCTA_BENCH_GATE_SLACK to widen tolerance on noisy runners", len(violations))
}

// runClusterGate is the scale-out regression gate: it replays the canonical
// 3-shard + router sweep (loadgen.ClusterBaselineOptions — the shape that
// produced the committed cluster baseline) and fails if (a) the topology
// regressed against its own committed cluster baseline, or (b) it no longer
// clears the scale-out bar over the committed single-node baseline —
// aggregate throughput ≥ ScaleOutBar(cores)× single-node, warm p99 within
// 2× the single-node tail, and zero non-2xx responses. The canonical sweep
// also runs the warm-failover probe, so the gate additionally fails if the
// kill window surfaced a non-2xx or the post-failover warm fraction fell
// below loadgen.FailoverWarmBar.
func runClusterGate(clusterPath, singlePath string, seed int64, slackFlag float64, outJSON string) error {
	slack, err := loadgen.ResolveSlack(slackFlag, os.Getenv("DCTA_BENCH_GATE_SLACK"))
	if err != nil {
		return err
	}
	clusterBase, err := loadgen.LoadReport(clusterPath)
	if err != nil {
		return fmt.Errorf("cluster baseline: %w", err)
	}
	single, err := loadgen.LoadReport(singlePath)
	if err != nil {
		return fmt.Errorf("single-node baseline: %w", err)
	}
	opts := loadgen.ClusterBaselineOptions(seed)
	opts.Logf = log.New(os.Stdout, "", 0).Printf
	res, err := loadgen.Run(opts)
	if err != nil {
		return fmt.Errorf("cluster gate sweep: %w", err)
	}
	cur := res.Report
	if outJSON != "" {
		if err := loadgen.WriteReport(outJSON, cur); err != nil {
			return err
		}
		fmt.Println("cluster gate: wrote", outJSON)
	}

	bar := loadgen.ScaleOutBar(cur.GOMAXPROCS)
	fmt.Printf("cluster gate: slack %.0f%%, %d cores → scale-out bar %.2f× single-node\n",
		slack*100, cur.GOMAXPROCS, bar)
	fmt.Printf("cluster gate: throughput  single %-10.0f cluster %-10.0f floor %.0f rps\n",
		single.BestThroughputRPS, cur.BestThroughputRPS, single.BestThroughputRPS*bar/(1+slack))
	fmt.Printf("cluster gate: warm p99    single %-12s cluster %-12s limit %s\n",
		loadgen.Ns(single.WarmP99Ns), loadgen.Ns(cur.WarmP99Ns), loadgen.Ns(single.WarmP99Ns*2*(1+slack)))
	fmt.Printf("cluster gate: non-2xx rate %.4f (must be 0), retries %d, rebalances %d\n",
		cur.NonOKRate, cur.ClusterRetries, cur.ClusterRebalances)
	if cur.ClusterFailoverRequests > 0 {
		fmt.Printf("cluster gate: failover     %d requests, %d non-2xx (must be 0), warm fraction %.3f (floor %.2f), replication %d pushed / %d dropped\n",
			cur.ClusterFailoverRequests, cur.ClusterFailoverNon2xx, cur.ClusterFailoverWarmFraction,
			loadgen.FailoverWarmBar, cur.ClusterReplicationPushes, cur.ClusterReplicationDropped)
	}

	violations := loadgen.ClusterGate(cur, single, slack)
	violations = append(violations, loadgen.Gate(cur, clusterBase, slack)...)
	if len(violations) == 0 {
		fmt.Println("cluster gate: PASS")
		return nil
	}
	for _, v := range violations {
		fmt.Fprintln(os.Stderr, "cluster gate: FAIL:", v)
	}
	return fmt.Errorf("%d scale-out gate violation(s); rerun with -gate-slack or DCTA_BENCH_GATE_SLACK to widen tolerance on noisy runners", len(violations))
}
