// Command perfbench is the repository's benchmark. It builds nothing
// itself (run.sh builds serverd and this binary); it launches serverd
// as a durable primary plus one follower, drives them open-loop over
// loopback with a seeded Poisson schedule, checks every response, and
// prints one JSON result line.
//
// With -trace 0 the result holds the end-to-end metrics. With -trace 1
// it holds the per-layer metrics: the end-to-end run is repeated for the
// metrics scraped from serverd and /proc, then the workload's requests
// are replayed in-process with spans around each layer's calls.
//
//	perfbench -serverd bin/serverd -work run -workload warm-small -seed 1 -seconds 30 -trace 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"slices"
	"time"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var cfg config
	name := flag.String("workload", "", "workload: warm-small, bulk-where or ingest-follow")
	seconds := flag.Int("seconds", 30, "seconds of open-loop load per run")
	trace := flag.Int("trace", 0, "1 reports per-layer metrics from a traced run, 0 end-to-end metrics")
	flag.StringVar(&cfg.serverd, "serverd", "", "path to the serverd binary")
	flag.StringVar(&cfg.work, "work", "", "scratch directory for server data and logs")
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed")
	flag.Parse()
	// The generator keeps every response until the load ends; collecting
	// less often keeps its own CPU use out of the servers' way.
	debug.SetGCPercent(400)
	cfg.dur = time.Duration(*seconds) * time.Second
	if err := run(cfg, *name, *trace == 1); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(cfg config, name string, traced bool) error {
	if cfg.serverd == "" || cfg.work == "" || cfg.dur <= 0 {
		return fmt.Errorf("need -serverd, -work and a positive -seconds")
	}
	w, err := workloadByName(name)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(cfg.work, 0o755); err != nil {
		return err
	}
	sch, err := w.buildSchedule(cfg.seed, cfg.dur)
	if err != nil {
		return err
	}
	fmt.Printf("rates: %s\n", w.rates())
	fmt.Printf("workload %s seed %d: %d reads, %d appends over %v; GOMAXPROCS %d\n",
		w.name, cfg.seed, len(sch.reads), len(sch.appends), cfg.dur, runtime.GOMAXPROCS(0))

	seeded := newSeededCheck(w, cfg.seed)
	res, err := runE2E(context.Background(), cfg, w, sch, seeded)
	if err != nil {
		return err
	}
	correct := res.failed == 0
	if err := seeded.verify(); err != nil {
		fmt.Println("check failed:", err)
		correct = false
	}
	for _, f := range res.failures {
		fmt.Println("check failed:", f)
	}
	fmt.Printf("host: %.1f%% of CPU time stolen by the hypervisor during the load\n", 100*res.steal)
	fmt.Printf("setup: %.4f s\n", res.setup)
	late := summarize(res.late)
	fmt.Printf("loadgen: p99 lateness %.3f ms over %d timer wake-ups (bound %v)\n", late.P99, late.N, w.maxLate())
	if late.P99 > ms(w.maxLate()) {
		fmt.Println("run invalid: the load generator ran later than its bound")
		correct = false
	}
	for _, c := range res.classes() {
		s := summarize(c.samples)
		fmt.Printf("%-8s n=%d: p50 %.3f ms  p99 %.3f ms  p%.2f %.3f ms (highest percentile with %d samples beyond); tail reported: p%.2f\n",
			c.name, s.N, s.P50, s.P99, s.TopPct, s.Top, minBeyond, s.TailPct)
	}
	out := map[string]metric{}
	if traced {
		layers, err := runTraced(cfg, w, sch, cfg.dur/2)
		if err != nil {
			return err
		}
		for k, v := range layers {
			out[k] = metric{v, layerUnit(k)}
		}
		addScraped(out, res, late)
	} else {
		addEndToEnd(out, res)
	}
	names := make([]string, 0, len(out))
	for k := range out {
		names = append(names, k)
	}
	slices.Sort(names)
	for _, k := range names {
		fmt.Printf("%-28s %14.4f %s\n", k, out[k].Value, out[k].Unit)
	}
	line, err := json.Marshal(result{Correct: correct, Attempted: res.attempted, Failed: res.failed, Metrics: out})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

func addEndToEnd(out map[string]metric, res *e2eResult) {
	out["setup_s"] = metric{median(res.setup), "s"}
	out["cpu_us_per_op"] = metric{res.cpuUsPerOp, "us"}
	out["peak_rss_mib"] = metric{res.rssMiB, "MiB"}
}

// addScraped adds the per-layer metrics read from serverd's /metrics,
// /proc and the load generator during the end-to-end run, and the
// end-to-end latencies, which are reported with them rather than gated:
// on a shared two-CPU virtual machine their spread over ten seeds
// reached 0.3 to 0.6 of the median whenever a neighbour loaded the host,
// wider than the largest bound a gate may use.
func addScraped(out map[string]metric, res *e2eResult, late summary) {
	reg := res.primary.Registry
	lookups := reg.Hits + reg.Prepares + reg.Coalesced
	reconnects, resyncs, _, _ := res.follower.followerTotals()
	var commitErrors int64
	if res.primary.Durability != nil {
		commitErrors = res.primary.Durability.CommitErrors
	}
	lag := slices.Clone(res.lagS)
	slices.Sort(lag)
	lagP99 := 0.0
	if len(lag) > 0 {
		lagP99 = lag[rankIndex(len(lag), 99)]
	}
	for _, c := range res.classes() {
		s := summarize(c.samples)
		out[c.name+"_p50_ms"] = metric{s.P50, "ms"}
		out[c.name+"_p99_ms"] = metric{s.Tail, "ms"}
	}
	for k, v := range map[string]float64{
		"registry.prepares":    float64(reg.Prepares),
		"registry.hit_ratio":   float64(reg.Hits) / float64(max(lookups, 1)),
		"registry.evictions":   float64(reg.Evictions),
		"serve.rejected":       float64(res.primary.Rejected + res.follower.Rejected),
		"wal.commit_errors":    float64(commitErrors),
		"repl.lag_p99_s":       lagP99,
		"repl.reconnects":      float64(reconnects),
		"repl.resyncs":         float64(resyncs),
		"serve.cpu_s.primary":  res.cpuPrimary,
		"serve.cpu_s.follower": res.cpuFollower,
		"loadgen.sent":         float64(res.attempted),
		"loadgen.completed":    float64(res.attempted - res.failed),
		"loadgen.late_p99_ms":  late.P99,
		"error_rate":           float64(res.failed) / float64(max(res.attempted, 1)),
	} {
		out[k] = metric{v, layerUnit(k)}
	}
}

// layerUnit derives a per-layer metric's unit from its name.
func layerUnit(name string) string {
	for _, u := range []struct{ suffix, unit string }{
		{"_us", "us"}, {"_ms", "ms"}, {"_s", "s"}, {"_kib_per_req", "KiB"},
		{".primary", "s"}, {".follower", "s"},
		{"_ratio", "ratio"}, {"_share", "ratio"}, {"_rate", "ratio"}, {"_per_req", "count"},
	} {
		if len(name) > len(u.suffix) && name[len(name)-len(u.suffix):] == u.suffix {
			return u.unit
		}
	}
	return "count"
}
