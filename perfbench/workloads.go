package main

import (
	"cmp"
	"encoding/json"
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"time"

	"sampleunion"
	"sampleunion/internal/serve"
	"sampleunion/internal/tpch"
)

// declSpec is one warm declaration of a workload, with the output
// attribute its predicates filter on and the range of the "attr <= t"
// thresholds drawn for them.
type declSpec struct {
	decl             serve.UnionDecl
	predAttr         string
	predMin, predMax int64
}

// readClass is one kind of read request in a workload's mix.
type readClass struct {
	path   string // /sample, /sample/where or /approx/count
	n      int
	weight float64
}

// workload is one traffic mix against a durable primary with one
// follower. Reads arrive as one Poisson stream at readRate; appends as
// a second Poisson stream at appendRate, each of appendRows rows into
// lineitem_v0 of decls[0].
type workload struct {
	name       string
	decls      []declSpec
	readRate   float64
	reads      []readClass
	appendRate float64
	appendRows int
	// ingestShare is the share of the run, at its end, in which appends
	// run alone after the reads; 0 runs them beside the reads throughout.
	ingestShare float64
	// dangling appends reference no order, so they exercise the ingest
	// path (commit, refresh, replication) without growing the union.
	dangling bool
}

// appendRel is the relation every workload appends to.
const appendRel = "lineitem_v0"

func uq1(sf float64, o serve.OptionsDecl) declSpec {
	return declSpec{decl: serve.UnionDecl{Workload: "UQ1", SF: sf, Options: o},
		predAttr: "l_quantity", predMin: 10, predMax: 40}
}

func uq3(sf float64, o serve.OptionsDecl) declSpec {
	return declSpec{decl: serve.UnionDecl{Workload: "UQ3", SF: sf, Options: o},
		predAttr: "o_totalprice", predMin: 20000, predMax: 80000}
}

var workloads = []workload{
	{
		// Small data and small requests: fixed per-request costs (decode,
		// key, lookup, RNG seeding, encode, HTTP) dominate, so a registry,
		// key or RNG change shows here and an engine change barely does.
		name:     "warm-small",
		decls:    []declSpec{uq1(1, serve.OptionsDecl{Warmup: "histogram"})},
		readRate: 300,
		reads: []readClass{
			{"/sample", 16, 160},
			{"/sample", 1, 20},
			{"/sample/where", 16, 20},
			{"/approx/count", 64, 100},
		},
		appendRate:  20,
		appendRows:  1,
		ingestShare: 1.0 / 3,
		dangling:    true,
	},
	{
		// Data far past L2 and milliseconds of engine, predicate-scan,
		// shard fan-out and encode work per request: key and lookup are a
		// few percent, so engine and aqp changes show here and a key
		// change should not.
		name: "bulk-where",
		decls: []declSpec{
			uq1(10, serve.OptionsDecl{Warmup: "random-walk", Method: "EW"}),
			uq3(10, serve.OptionsDecl{Warmup: "auto"}),
			uq1(10, serve.OptionsDecl{Shards: -1}),
		},
		readRate: 20,
		reads: []readClass{
			{"/sample/where", 1024, 2},
			{"/sample", 1024, 1},
			{"/approx/count", 4096, 3},
		},
		appendRate:  20,
		appendRows:  1,
		ingestShare: 1.0 / 3,
		dangling:    true,
	},
	{
		// Writes beside reads on one session: WAL commit, refresh,
		// checkpoints and replication run under draws, so a change that
		// speeds draws by making refresh or commit costlier shows here.
		name:     "ingest-follow",
		decls:    []declSpec{uq1(1, serve.OptionsDecl{Warmup: "histogram"})},
		readRate: 140,
		reads: []readClass{
			{"/sample", 16, 90},
			{"/sample/where", 16, 10},
			{"/approx/count", 64, 40},
		},
		appendRate: 20,
		appendRows: 64,
	},
}

// maxLate is the load generator's own lateness bound: a run whose p99
// send lateness passes it did not offer the workload's schedule, and is
// marked invalid. It is one mean gap between reads, and at least 10 ms.
func (w workload) maxLate() time.Duration {
	return max(10*time.Millisecond, time.Duration(float64(time.Second)/w.readRate))
}

// rates describes the workload's fixed offered load in one line.
func (w workload) rates() string {
	when := "beside the reads"
	if w.ingestShare > 0 {
		when = fmt.Sprintf("alone in the last %.0f%% of the run", 100*w.ingestShare)
	}
	return fmt.Sprintf("%g reads/s; %g appends/s of %d rows, %s", w.readRate, w.appendRate, w.appendRows, when)
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// opKind classifies client operations.
type opKind int

const (
	opDraw opKind = iota
	opApprox
	opScrape
	opAppend
)

// bound is a generated "attr <= max" predicate.
type bound struct {
	attr string
	max  int64
}

func (b *bound) decl() *serve.PredDecl {
	if b == nil {
		return nil
	}
	return &serve.PredDecl{Cmp: &serve.CmpDecl{Attr: b.attr, Op: "<=", Value: b.max}}
}

func (b *bound) predicate() sampleunion.Predicate {
	if b == nil {
		return sampleunion.True{}
	}
	return sampleunion.Cmp{Attr: b.attr, Op: sampleunion.LE, Val: sampleunion.Value(b.max)}
}

// op is one scheduled client operation.
type op struct {
	due   time.Duration
	kind  opKind
	path  string
	body  []byte
	decl  int
	n     int
	where *bound
	rows  [][]int64 // appends
	idem  string    // appends
}

// sampleBody is the request shape of /sample and /sample/where.
type sampleBody struct {
	Union serve.UnionDecl `json:"union"`
	N     int             `json:"n"`
	Seed  *int64          `json:"seed,omitempty"`
	Where *serve.PredDecl `json:"where,omitempty"`
}

// appendBody is the request shape of /relation/{name}/append.
type appendBody struct {
	Union serve.UnionDecl `json:"union"`
	Rows  [][]int64       `json:"rows"`
}

// schedule is a workload's generated input for one run.
type schedule struct {
	reads   []op // draws, approx counts and /metrics scrapes, by due time
	appends []op
}

// buildSchedule generates the workload's operations over dur from the
// seed: the same seed always yields the same requests at the same
// offsets.
func (w workload) buildSchedule(seed int64, dur time.Duration) (schedule, error) {
	var s schedule
	readDur := time.Duration(float64(dur) * (1 - w.ingestShare))
	appendFrom := readDur
	if w.ingestShare == 0 {
		appendFrom = 0
	}
	r := newRand(seed, 1)
	arrivals := poissonArrivals(r, w.readRate, readDur)
	for i, m := range w.readMix(r, len(arrivals)) {
		c := w.reads[m.class]
		ds := w.decls[m.decl]
		o := op{due: arrivals[i], path: c.path, decl: m.decl, n: c.n, kind: opDraw}
		if c.path != "/sample" {
			o.where = &bound{ds.predAttr, m.max}
		}
		if c.path == "/approx/count" {
			o.kind = opApprox
		}
		body, err := json.Marshal(sampleBody{Union: ds.decl, N: c.n, Where: o.where.decl()})
		if err != nil {
			return s, err
		}
		o.body = body
		s.reads = append(s.reads, o)
	}
	for at := time.Second; at < readDur; at += time.Second {
		s.reads = append(s.reads, op{due: at, kind: opScrape, path: "/metrics"})
	}
	slices.SortStableFunc(s.reads, func(a, b op) int { return cmp.Compare(a.due, b.due) })

	r = newRand(seed, 2)
	orders := int64(math.Round(float64(tpch.Rows.Orders) * w.decls[0].decl.SF))
	next := int64(0)
	for i, at := range poissonArrivals(r, w.appendRate, dur-appendFrom) {
		rows := make([][]int64, w.appendRows)
		for j := range rows {
			next++
			orderkey := r.Int64N(orders)
			if w.dangling {
				orderkey = 2_000_000_000 + next
			}
			rows[j] = []int64{orderkey, 1_000_000_000 + next, 1 + r.Int64N(50), r.Int64N(100000)}
		}
		body, err := json.Marshal(appendBody{Union: w.decls[0].decl, Rows: rows})
		if err != nil {
			return s, err
		}
		s.appends = append(s.appends, op{
			due: appendFrom + at, kind: opAppend, path: "/relation/" + appendRel + "/append", body: body,
			rows: rows, idem: fmt.Sprintf("perfbench-%d-%d", seed, i),
		})
	}
	return s, nil
}

// readSpec is one read's class, declaration and predicate threshold.
type readSpec struct {
	class, decl int
	max         int64
}

// readMix returns n reads in random order. Each (class, declaration)
// pair appears as often as its share of the weights says, rounded by
// largest remainders, and each pair's predicate thresholds are
// stratified over the declaration's range. Every seed then offers the
// same mix of work and changes only the order and the exact thresholds:
// drawn per request, the mix, and with it the CPU per operation of a
// workload of a few hundred heavy requests, would vary from seed to
// seed.
func (w workload) readMix(r *rand.Rand, n int) []readSpec {
	type quota struct {
		class, decl, n int
		frac           float64
	}
	total := 0.0
	for _, c := range w.reads {
		total += c.weight
	}
	var qs []quota
	left := n
	for ci, c := range w.reads {
		for d := range w.decls {
			x := float64(n) * c.weight / total / float64(len(w.decls))
			qs = append(qs, quota{ci, d, int(x), x - math.Floor(x)})
			left -= int(x)
		}
	}
	byFrac := make([]int, len(qs))
	for i := range byFrac {
		byFrac[i] = i
	}
	slices.SortStableFunc(byFrac, func(a, b int) int { return cmp.Compare(qs[b].frac, qs[a].frac) })
	for _, i := range byFrac[:left] {
		qs[i].n++
	}
	out := make([]readSpec, 0, n)
	for _, q := range qs {
		ds := w.decls[q.decl]
		span := float64(ds.predMax - ds.predMin + 1)
		for k := 0; k < q.n; k++ {
			t := ds.predMin + int64((float64(k)+r.Float64())/float64(q.n)*span)
			out = append(out, readSpec{q.class, q.decl, min(t, ds.predMax)})
		}
	}
	r.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// outputSchema returns the declaration's output attributes, built from
// a tiny instance of the same workload (the schema does not depend on
// the scale factor).
func outputSchema(d serve.UnionDecl) ([]string, error) {
	cfg := tpch.Config{SF: 0.01, Overlap: 0.2, Seed: 1}
	var w *tpch.Workload
	var err error
	switch d.Workload {
	case "UQ1":
		w, err = tpch.UQ1(cfg)
	case "UQ3":
		w, err = tpch.UQ3(cfg)
	default:
		err = fmt.Errorf("no schema for workload %q", d.Workload)
	}
	if err != nil {
		return nil, err
	}
	u, err := sampleunion.NewUnion(w.Joins...)
	if err != nil {
		return nil, err
	}
	s := u.OutputSchema()
	out := make([]string, s.Len())
	for i := range out {
		out[i] = s.Attr(i)
	}
	return out, nil
}
