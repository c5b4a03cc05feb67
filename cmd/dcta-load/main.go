// Command dcta-load is a closed-loop load generator for the dcta-server
// allocation service. It builds the same experimental world as the server,
// replays its held-out evaluation epochs as allocate (and periodic feedback)
// requests, sweeps a list of concurrency levels, and reports client-observed
// p50/p95/p99 latency, throughput and cache hit rate per level.
//
//	dcta-load                          # in-process server on 127.0.0.1:0
//	dcta-load -addr host:8080          # drive an external dcta-server
//	dcta-load -preset baseline -json BENCH_PR7.json
//	                                   # regenerate the committed baseline
//
// The run has two phases: a sequential cold sweep that touches each distinct
// evaluation signature once (paying and recording per-cluster policy
// training), then one closed-loop warm phase per -levels entry. The sweep
// machinery lives in internal/loadgen, shared with dcta-bench's
// tail-latency regression gate.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"repro/internal/loadgen"
)

func main() {
	var (
		addr         = flag.String("addr", "", "server address; empty runs an in-process server on a loopback port")
		scale        = flag.String("scale", "fast", "scenario scale: fast, default, full")
		seed         = flag.Int64("seed", 1, "scenario seed (must match the server's for meaningful requests)")
		levels       = flag.String("levels", "1,2,4,8,16", "comma-separated concurrency levels to sweep")
		requests     = flag.Int("requests", 400, "allocate requests per concurrency level")
		feedbackNth  = flag.Int("feedback-every", 8, "post a feedback request after every Nth allocate (0 disables)")
		jsonPath     = flag.String("json", "", "write the flat benchmark record to this file")
		neighborhood = flag.Int("neighborhood", 5, "in-process server: stored environments per cluster sub-store")
		episodes     = flag.Int("crl-episodes", 0, "in-process server: per-cluster CRL episodes (0 = scale default)")
		noWarmStart  = flag.Bool("no-warm-start", false, "in-process server: disable neighbour warm-start (cold clusters train from scratch)")
		speculate    = flag.Int("speculate", 0, "in-process server: pre-train up to N predicted-next clusters per demand training (0 disables)")
		prioritized  = flag.Bool("prioritized-replay", false, "in-process server: TD-error-prioritized experience replay (α=0.6)")
		parityWorlds = flag.Int("parity-worlds", 0, "measure value parity (collapsed cold-start vs full-budget scratch) over N seeded worlds")
		preset       = flag.String("preset", "", "\"baseline\" replaces the sweep flags with the canonical shape the CI tail gate replays")
		shards       = flag.Int("shards", 0, "router mode: run an in-process N-shard cluster behind the consistent-hash router and drive that (0 = single server)")
		failoverReqs = flag.Int("failover-requests", 0, "cluster mode: after the sweeps, kill the busiest primary and drive N allocates at its ranges to record the warm-failover fraction (0 disables; the baseline preset uses 200)")
	)
	flag.Parse()
	if err := run(*addr, *scale, *seed, *levels, *requests, *feedbackNth, *jsonPath,
		*neighborhood, *episodes, *noWarmStart, *speculate, *prioritized, *parityWorlds, *preset, *shards, *failoverReqs); err != nil {
		fmt.Fprintln(os.Stderr, "dcta-load:", err)
		os.Exit(1)
	}
}

func run(addr, scale string, seed int64, levelSpec string, requests, feedbackNth int,
	jsonPath string, neighborhood, episodes int, noWarmStart bool, speculate int,
	prioritized bool, parityWorlds int, preset string, shards, failoverReqs int) error {
	if shards > 0 && addr != "" {
		return fmt.Errorf("-shards runs an in-process cluster; it cannot be combined with -addr")
	}
	var opts loadgen.Options
	switch preset {
	case "":
		lv, err := loadgen.ParseLevels(levelSpec)
		if err != nil {
			return err
		}
		opts = loadgen.Options{
			Scale:             scale,
			Seed:              seed,
			Levels:            lv,
			Requests:          requests,
			FeedbackEvery:     feedbackNth,
			Neighborhood:      neighborhood,
			CRLEpisodes:       episodes,
			DisableWarmStart:  noWarmStart,
			Speculate:         speculate,
			PrioritizedReplay: prioritized,
			ParityWorlds:      parityWorlds,
			FailoverRequests:  failoverReqs,
		}
	case "baseline":
		if shards > 0 {
			opts = loadgen.ClusterBaselineOptions(seed)
		} else {
			opts = loadgen.BaselineOptions(seed)
		}
		if failoverReqs > 0 {
			opts.FailoverRequests = failoverReqs
		}
	default:
		return fmt.Errorf("unknown preset %q (only \"baseline\")", preset)
	}
	opts.Shards = shards
	opts.Addr = addr
	opts.Logf = log.New(os.Stdout, "", 0).Printf

	res, err := loadgen.Run(opts)
	if err != nil {
		return err
	}
	if jsonPath != "" {
		if err := loadgen.WriteReport(jsonPath, res.Report); err != nil {
			return err
		}
		fmt.Println("wrote", jsonPath)
	}
	return nil
}
