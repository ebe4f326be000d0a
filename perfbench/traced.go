package main

import (
	"bytes"
	"cmp"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"sync"
	"time"

	"sampleunion"
	"sampleunion/internal/relation"
	"sampleunion/internal/rng"
	"sampleunion/internal/serve"
	"sampleunion/internal/tpch"
	"sampleunion/internal/wal"
)

// tailMargin widens refresh, checkpoint and GC intervals when matching
// them against the slowest draws.
const tailMargin = 200 * time.Microsecond

// spanHeader carries the traced request's root span ID to the wrapped
// in-process handler.
const spanHeader = "X-Perfbench-Span"

// sink keeps results of timed calls alive.
var sink any

// runTraced replays the workload's requests in-process with a span
// around each call into a layer's public function. The first half of
// the budget replays reads one at a time (the per-request split); the
// second half replays draws and appends concurrently at their due
// times, for refresh, commit and checkpoint costs and tail attribution.
func runTraced(cfg config, w workload, sch schedule, budget time.Duration) (map[string]float64, error) {
	tr := newTracer()
	out := make(map[string]float64)
	if err := tracePrepare(tr, w, out); err != nil {
		return nil, err
	}

	srv := serve.New(serve.Config{})
	defer srv.Close()
	reg := srv.Registry()
	for _, d := range w.decls {
		if _, err := reg.Get(d.decl); err != nil {
			return nil, err
		}
	}
	if err := traceRequests(tr, srv, sch, budget/2, out); err != nil {
		return nil, err
	}
	if err := traceIngest(tr, cfg, w, reg, sch, budget/2, out); err != nil {
		return nil, err
	}
	return out, nil
}

// tracePrepare times data generation and warm-up for every declaration.
func tracePrepare(tr *tracer, w workload, out map[string]float64) error {
	var gen, warm time.Duration
	for _, d := range w.decls {
		cfg := tpch.Config{SF: d.decl.SF, Overlap: 0.2, Seed: 1}
		var tw *tpch.Workload
		var err error
		gen += tr.timed("tpch.generate", 0, 0, func() {
			if d.decl.Workload == "UQ3" {
				tw, err = tpch.UQ3(cfg)
			} else {
				tw, err = tpch.UQ1(cfg)
			}
		})
		if err != nil {
			return err
		}
		u, err := sampleunion.NewUnion(tw.Joins...)
		if err != nil {
			return err
		}
		opts, err := libOptions(d.decl.Options)
		if err != nil {
			return err
		}
		warm += tr.timed("core.warmup", 0, 0, func() {
			var s *sampleunion.Session
			s, err = u.Prepare(opts)
			sink = s
		})
		if err != nil {
			return err
		}
	}
	sink = nil
	runtime.GC()
	out["tpch.generate_ms"] = ms(gen)
	out["core.warmup_ms"] = ms(warm)
	return nil
}

// libOptions mirrors how the server turns a declaration's options into
// library options.
func libOptions(o serve.OptionsDecl) (sampleunion.Options, error) {
	out := sampleunion.Options{Seed: 1, Shards: o.Shards}
	if o.Shards < 0 {
		out.Shards = runtime.GOMAXPROCS(0)
	}
	if o.Warmup == "auto" || o.Method == "auto" {
		out.Auto = true
		out.WarmupWalks = sampleunion.AutoWarmupWalks
		return out, nil
	}
	warmup, method := o.Warmup, o.Method
	if warmup == "" {
		warmup = "random-walk"
	}
	if method == "" {
		method = "EW"
	}
	var err error
	if out.Warmup, err = sampleunion.ParseWarmup(warmup); err != nil {
		return out, err
	}
	out.Method, err = sampleunion.ParseMethod(method)
	return out, err
}

// traceRequests replays read requests one at a time until the budget is
// spent. Each request goes once over loopback HTTP to the in-process
// handler (the handler span is the root's child, so the root's self time
// is the HTTP cost), once through the handler with a recorder (time and
// heap bytes allocated), and once through each layer call the handler
// makes: decode, key, registry lookup, RNG seeding, the engine, encode.
func traceRequests(tr *tracer, srv *serve.Server, sch schedule, budget time.Duration, out map[string]float64) error {
	handler := srv.Handler()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		root, _ := strconv.ParseInt(r.Header.Get(spanHeader), 10, 64)
		tr.timed("serve.handler", root, root, func() { handler.ServeHTTP(w, r) })
	}))
	defer ts.Close()
	cl := newClient()
	defer cl.http.CloseIdleConnections()
	reg := srv.Registry()

	var lookups []time.Duration
	var allocBytes uint64
	var handled, draws int
	var st sampleunion.Stats
	var ms0, ms1 runtime.MemStats
	start := time.Now()
	for _, o := range sch.reads {
		if time.Since(start) >= budget {
			break
		}
		if o.kind == opScrape {
			continue
		}
		root := tr.newID()
		t0 := tr.now()
		code, raw, err := cl.do(http.MethodPost, ts.URL+o.path, o.body, map[string]string{spanHeader: strconv.FormatInt(root, 10)})
		tr.add(span{ID: root, Req: root, Name: "serve.request", Start: t0, End: tr.now()})
		if err != nil {
			return err
		}
		if code != http.StatusOK {
			return fmt.Errorf("traced %s: status %d: %s", o.path, code, bytes.TrimSpace(raw))
		}

		req := httptest.NewRequest(http.MethodPost, o.path, bytes.NewReader(o.body))
		rec := httptest.NewRecorder()
		runtime.ReadMemStats(&ms0)
		tr.timed("serve.handler_rec", root, 0, func() { handler.ServeHTTP(rec, req) })
		runtime.ReadMemStats(&ms1)
		allocBytes += ms1.TotalAlloc - ms0.TotalAlloc
		handled++

		var body sampleBody
		tr.timed("serve.decode", root, 0, func() {
			dec := json.NewDecoder(bytes.NewReader(o.body))
			dec.DisallowUnknownFields()
			err = dec.Decode(&body)
		})
		if err != nil {
			return err
		}
		// Registry.Get computes the key itself, so its lookup cost is Get
		// minus a Key call. The lookup is a microsecond beside a key of
		// tens, below one call's noise: each is timed three times,
		// alternating, and the fastest of each is compared.
		var e *serve.Entry
		keyMin, getMin := time.Duration(math.MaxInt64), time.Duration(math.MaxInt64)
		for range 3 {
			keyMin = min(keyMin, tr.timed("spec.key", root, 0, func() { _, err = body.Union.Key() }))
			if err != nil {
				return err
			}
			getMin = min(getMin, tr.timed("serve.get", root, 0, func() { e, err = reg.Get(body.Union) }))
			if err != nil {
				return err
			}
		}
		lookups = append(lookups, getMin-keyMin)
		tr.timed("rng.seed", root, 0, func() { sink = rng.New(root) })

		pred := o.where.predicate()
		var payload any
		switch o.path {
		case "/sample", "/sample/where":
			var tuples []sampleunion.Tuple
			var s *sampleunion.Stats
			name := "core.draw"
			if o.path == "/sample/where" {
				name = "core.draw_where"
			}
			tr.timed(name, root, 0, func() {
				if o.path == "/sample" {
					tuples, s, err = e.Sess.SampleBatch(o.n)
				} else {
					tuples, s, err = e.Sess.SampleWhereBatch(o.n, pred)
				}
			})
			if err != nil {
				return err
			}
			st.Accepted += s.Accepted
			st.RejectedDup += s.RejectedDup
			st.JoinRejects += s.JoinRejects
			st.Revised += s.Revised
			st.TotalDraws += s.TotalDraws
			draws++
			payload = drawResponse(e, tuples)
		case "/approx/count":
			var res sampleunion.AggResult
			tr.timed("aqp.count", root, 0, func() { res, err = e.Sess.ApproxCount(pred, o.n) })
			if err != nil {
				return err
			}
			lo, hi := res.Interval()
			payload = map[string]any{"value": res.Value, "half_width": res.HalfWidth, "lo": lo, "hi": hi, "n": res.N}
		}
		tr.timed("serve.encode", root, 0, func() {
			var buf bytes.Buffer
			err = json.NewEncoder(&buf).Encode(payload)
		})
		if err != nil {
			return err
		}
	}

	out["serve.decode_us"] = medianUs(tr.byName("serve.decode"))
	out["spec.key_us"] = medianUs(tr.byName("spec.key"))
	out["serve.lookup_us"] = medianUs(lookups)
	out["serve.handler_us"] = medianUs(tr.byName("serve.handler_rec"))
	out["serve.http_us"] = medianUs(selfTimes(tr.snapshot(), "serve.request"))
	out["rng.seed_us"] = medianUs(tr.byName("rng.seed"))
	out["core.draw_us"] = medianUs(tr.byName("core.draw"))
	out["core.draw_where_us"] = medianUs(tr.byName("core.draw_where"))
	out["aqp.count_us"] = medianUs(tr.byName("aqp.count"))
	out["serve.encode_us"] = medianUs(tr.byName("serve.encode"))
	if handled > 0 {
		out["serve.alloc_kib_per_req"] = float64(allocBytes) / 1024 / float64(handled)
	}
	if st.TotalDraws > 0 {
		total := float64(st.TotalDraws)
		out["core.accept_ratio"] = float64(st.Accepted) / total
		out["core.dup_reject_share"] = float64(st.RejectedDup) / total
		out["core.join_reject_share"] = float64(st.JoinRejects) / total
	}
	if draws > 0 {
		out["core.revisions_per_req"] = float64(st.Revised) / float64(draws)
	}
	return nil
}

// drawResponse is the /sample response shape for the encode span.
func drawResponse(e *serve.Entry, tuples []sampleunion.Tuple) any {
	s := e.Sess.OutputSchema()
	schema := make([]string, s.Len())
	for i := range schema {
		schema[i] = s.Attr(i)
	}
	return map[string]any{"schema": schema, "tuples": wireTuples(tuples), "union_size": e.Sess.UnionSize(), "elapsed_us": 0.0}
}

// traceIngest replays appends (append, WAL commit, refresh, automatic
// checkpoint) beside draws, each stream from its own start and at its
// due times, on the first declaration's in-process session with its own
// relation log. Draws in the slowest 1% (at least minBeyond of them) are
// matched against the refresh, checkpoint and GC-pause intervals.
func traceIngest(tr *tracer, cfg config, w workload, reg *serve.Registry, sch schedule, budget time.Duration, out map[string]float64) error {
	e, err := reg.Get(w.decls[0].decl)
	if err != nil {
		return err
	}
	rel, ok := e.Rels[appendRel]
	if !ok {
		return fmt.Errorf("declaration has no relation %s", appendRel)
	}
	dir := filepath.Join(cfg.work, "traced-wal")
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	rl, err := wal.OpenRelationLog(dir, rel, wal.RelationLogOptions{
		Options:         wal.Options{Policy: wal.SyncInterval, Interval: 2 * time.Millisecond},
		CheckpointEvery: 4096, // serverd's default cadence
	})
	if err != nil {
		return err
	}
	rl.Attach()
	defer rl.Close()

	phase := tr.now()
	epoch := time.Now()
	var wg sync.WaitGroup
	var writeErr, readErr error
	autoCheckpoints := 0
	wg.Add(2)
	go func() {
		defer wg.Done()
		for _, o := range sch.appends {
			// Workloads that append after their reads replay both
			// streams side by side here.
			due := o.due - sch.appends[0].due
			if due >= budget {
				return
			}
			_, _, _ = waitUntil(epoch, due)
			rows := make([]relation.Tuple, len(o.rows))
			for i, r := range o.rows {
				rows[i] = relation.Tuple{relation.Value(r[0]), relation.Value(r[1]), relation.Value(r[2]), relation.Value(r[3])}
			}
			tr.timed("relation.append", 0, 0, func() { rel.AppendRowsTagged(rows, o.idem) })
			tr.timed("wal.commit", 0, 0, func() { writeErr = rl.Commit() })
			if writeErr != nil {
				return
			}
			tr.timed("core.refresh", 0, 0, func() { writeErr = e.Sess.Refresh() })
			if writeErr != nil {
				return
			}
			t0 := tr.now()
			did, err := rl.MaybeCheckpoint()
			if err != nil {
				writeErr = err
				return
			}
			if did {
				tr.add(span{ID: tr.newID(), Name: "wal.checkpoint", Start: t0, End: tr.now()})
				autoCheckpoints++
			}
		}
	}()
	go func() {
		defer wg.Done()
		for _, o := range sch.reads {
			if o.due >= budget {
				return
			}
			if o.kind != opDraw || o.decl != 0 {
				continue
			}
			_, _, _ = waitUntil(epoch, o.due)
			pred := o.where.predicate()
			tr.timed("tail.draw", 0, 0, func() {
				if o.where == nil {
					sink, _, readErr = e.Sess.SampleBatch(o.n)
				} else {
					sink, _, readErr = e.Sess.SampleWhereBatch(o.n, pred)
				}
			})
			if readErr != nil {
				return
			}
		}
	}()
	wg.Wait()
	if writeErr != nil || readErr != nil {
		return fmt.Errorf("traced ingest: %v %v", writeErr, readErr)
	}
	// One explicit checkpoint, so its cost is known even when the phase
	// was too short to trigger an automatic one.
	t0 := tr.now()
	if err := rl.Checkpoint(); err != nil {
		return err
	}
	tr.add(span{ID: tr.newID(), Name: "wal.checkpoint", Start: t0, End: tr.now()})

	busy := append(tr.intervals("core.refresh"), tr.intervals("wal.checkpoint")...)
	busy = append(busy, gcPauses(tr, phase)...)
	draws := tr.intervals("tail.draw")
	slices.SortFunc(draws, func(a, b interval) int { return cmp.Compare(b.End-b.Start, a.End-a.Start) })
	slow := draws[:min(len(draws), max(minBeyond, len(draws)/100))]

	out["relation.append_us"] = medianUs(tr.byName("relation.append"))
	out["wal.commit_us"] = medianUs(tr.byName("wal.commit"))
	out["core.refresh_us"] = medianUs(tr.byName("core.refresh"))
	out["wal.checkpoint_ms"] = medianUs(tr.byName("wal.checkpoint")) / 1e3
	out["wal.checkpoints"] = float64(autoCheckpoints)
	out["serve.tail_overlap_share"] = overlapShare(slow, busy, tailMargin)
	return nil
}

// gcPauses returns the stop-the-world GC pauses since the tracer offset
// from, as tracer intervals.
func gcPauses(tr *tracer, from time.Duration) []interval {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	var out []interval
	n := min(int(m.NumGC), len(m.PauseEnd))
	for i := 0; i < n; i++ {
		k := (int(m.NumGC) - 1 - i) % len(m.PauseEnd)
		end := time.Unix(0, int64(m.PauseEnd[k])).Sub(tr.epoch)
		if end < from {
			break
		}
		out = append(out, interval{end - time.Duration(m.PauseNs[k]), end})
	}
	return out
}
