package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"sampleunion/internal/serve"
)

// A run times set-ups in two rounds, one before the load and one after
// it, so that setup_s samples the host across the whole run: on a shared
// host, bursts of other machines' work lasting a few seconds otherwise
// decide a run's figure. Each round sets up at least minSetups times,
// then until setupBudget of set-up time has passed (at most maxSetups
// times). setup_s is the median over both rounds; the last cluster of
// the first round serves the load.
const (
	minSetups   = 3
	maxSetups   = 20
	setupBudget = 1500 * time.Millisecond
)

// config is one benchmark invocation.
type config struct {
	serverd string
	work    string
	seed    int64
	dur     time.Duration
}

// cluster is a durable primary plus one follower.
type cluster struct {
	primary, follower *serverd
	keys              []string // registry key per declaration
	baseRows          int      // appendRel rows of decls[0] after set-up
}

// cpuSeconds is each process's user plus system CPU time so far.
func (c *cluster) cpuSeconds() (primary, follower float64, err error) {
	primary, err1 := c.primary.cpuSeconds()
	follower, err2 := c.follower.cpuSeconds()
	return primary, follower, errors.Join(err1, err2)
}

func (c *cluster) stop() {
	if c.follower != nil {
		c.follower.stop()
	}
	if c.primary != nil {
		c.primary.stop()
	}
}

// metricsScrape is the part of serverd's /metrics body the benchmark
// reads.
type metricsScrape struct {
	Registry    serve.RegistryStats           `json:"registry"`
	Storage     map[string]serve.EntryStorage `json:"storage"`
	Rejected    int64                         `json:"rejected"`
	Durability  *serve.DurabilitySnapshot     `json:"durability"`
	Replication *serve.ReplicationSnapshot    `json:"replication"`
}

func (m metricsScrape) rows(key string) int {
	return m.Storage[key].Relations[appendRel].Rows
}

// followerTotals sums the follower-side replication counters.
func (m metricsScrape) followerTotals() (reconnects, resyncs, divergences uint64, maxLag float64) {
	if m.Replication == nil || m.Replication.Follower == nil {
		return
	}
	for _, t := range m.Replication.Follower.Targets {
		reconnects += t.Reconnects
		resyncs += t.Resyncs
		divergences += t.Divergences
		maxLag = max(maxLag, t.LagSeconds)
	}
	return
}

// caughtUp reports whether a follower scrape shows every declaration
// replicated, connected and with no records outstanding.
func (m metricsScrape) caughtUp(keys []string) bool {
	if m.Replication == nil || m.Replication.Follower == nil {
		return false
	}
	seen := make(map[string]bool)
	for _, t := range m.Replication.Follower.Targets {
		if !t.Connected || t.LagRecords != 0 {
			return false
		}
		seen[t.Session] = true
	}
	for _, k := range keys {
		if !seen[k] {
			return false
		}
		if _, ok := m.Storage[k]; !ok {
			return false
		}
	}
	return true
}

// client is one load-generator lane: a single keep-alive connection per
// server it talks to.
type client struct{ http *http.Client }

func newClient() client {
	return client{&http.Client{
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true},
		Timeout:   60 * time.Second,
	}}
}

func (c client) do(method, url string, body []byte, header map[string]string) (int, []byte, error) {
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	for k, v := range header {
		req.Header.Set(k, v)
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	return resp.StatusCode, raw, err
}

func (c client) scrape(url string) (metricsScrape, error) {
	var m metricsScrape
	code, raw, err := c.do(http.MethodGet, url+"/metrics", nil, nil)
	if err != nil {
		return m, err
	}
	if code != http.StatusOK {
		return m, fmt.Errorf("GET /metrics: status %d", code)
	}
	return m, json.Unmarshal(raw, &m)
}

func (c client) postJSON(url, path string, body any) error {
	raw, err := json.Marshal(body)
	if err != nil {
		return err
	}
	code, resp, err := c.do(http.MethodPost, url+path, raw, nil)
	if err != nil {
		return err
	}
	if code != http.StatusOK {
		return fmt.Errorf("POST %s: status %d: %s", path, code, bytes.TrimSpace(resp))
	}
	return nil
}

// setupCluster starts a primary on a fresh data directory, warms every
// declaration, starts a follower and waits until it has caught up. It
// returns the cluster and the wall time all of that took.
func setupCluster(ctx context.Context, cfg config, w workload, i int) (*cluster, time.Duration, error) {
	dir := filepath.Join(cfg.work, fmt.Sprintf("setup%d", i))
	if err := os.RemoveAll(dir); err != nil {
		return nil, 0, err
	}
	if err := os.MkdirAll(filepath.Join(dir, "data"), 0o755); err != nil {
		return nil, 0, err
	}
	cl := newClient()
	c := &cluster{}
	start := time.Now()
	var err error
	c.primary, err = startServerd(ctx, cfg.serverd, "primary", filepath.Join(dir, "primary.log"),
		"-data-dir", filepath.Join(dir, "data"), "-fsync", "interval")
	if err != nil {
		return nil, 0, err
	}
	for _, d := range w.decls {
		if err := cl.postJSON(c.primary.url, "/estimate", map[string]any{"union": d.decl}); err != nil {
			c.stop()
			return nil, 0, fmt.Errorf("warming primary: %w", err)
		}
		key, err := d.decl.Key()
		if err != nil {
			c.stop()
			return nil, 0, err
		}
		c.keys = append(c.keys, key)
	}
	c.follower, err = startServerd(ctx, cfg.serverd, "follower", filepath.Join(dir, "follower.log"),
		"-follow", c.primary.url, "-repl-poll", "250ms")
	if err != nil {
		c.stop()
		return nil, 0, err
	}
	deadline := time.Now().Add(60 * time.Second)
	for {
		m, err := cl.scrape(c.follower.url)
		if err == nil && m.caughtUp(c.keys) {
			break
		}
		if time.Now().After(deadline) {
			c.stop()
			return nil, 0, fmt.Errorf("follower did not catch up within 60s (last error: %v)", err)
		}
		time.Sleep(2 * time.Millisecond)
	}
	took := time.Since(start)
	m, err := cl.scrape(c.primary.url)
	if err != nil {
		c.stop()
		return nil, 0, err
	}
	c.baseRows = m.rows(c.keys[0])
	return c, took, nil
}

// e2eResult is everything the end-to-end run measured.
type e2eResult struct {
	setup                            []float64 // seconds, one per set-up
	draw, approx, appendAck, visible latencies
	late                             latencies // how late the generator's timer woke, per wake-up
	lagS                             []float64 // follower lag seen by each poll
	attempted, failed                int
	cpuPrimary, cpuFollower          float64
	cpuUsPerOp                       float64
	rssMiB                           float64
	steal                            float64       // host CPU time stolen by the hypervisor during the load
	primary, follower                metricsScrape // final scrapes
	failures                         []string      // first few check failures
}

// latencyClass is one operation class's samples.
type latencyClass struct {
	name    string
	samples latencies
}

func (res *e2eResult) classes() []latencyClass {
	return []latencyClass{{"draw", res.draw}, {"approx", res.approx}, {"append", res.appendAck}, {"visible", res.visible}}
}

// fail counts a failed check and keeps the first few messages.
func (res *e2eResult) fail(format string, args ...any) {
	res.failed++
	if len(res.failures) < 5 {
		res.failures = append(res.failures, fmt.Sprintf(format, args...))
	}
}

// runE2E sets the cluster up (several times), checks one fixed-seed
// draw per declaration, drives the schedule open-loop, scrapes both
// servers, stops them, and times a second round of set-ups. It returns
// with every process it started stopped; the returned error reports a
// run that could not complete, while check failures are counted in the
// result.
func runE2E(ctx context.Context, cfg config, w workload, sch schedule, seeded *seededCheck) (*e2eResult, error) {
	res := &e2eResult{}
	c, err := res.setUpRound(ctx, cfg, w)
	if err != nil {
		return nil, err
	}
	defer c.stop()
	if err := seeded.fetch(newClient(), c.primary.url); err != nil {
		return nil, err
	}
	schemas := make([][]string, len(w.decls))
	for i, d := range w.decls {
		var err error
		if schemas[i], err = outputSchema(d.decl); err != nil {
			return nil, err
		}
	}

	cpuP0, cpuF0, err := c.cpuSeconds()
	if err != nil {
		return nil, err
	}
	ticks0, steal0 := hostTicks()
	epoch := time.Now()
	var wg, readWG sync.WaitGroup
	var next atomic.Int64
	readers := max(1, runtime.GOMAXPROCS(0)-1)
	reads := make([]readOutcome, len(sch.reads))
	for l := 0; l < readers; l++ {
		readWG.Add(1)
		go func() {
			defer readWG.Done()
			cl := newClient()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(sch.reads) {
					return
				}
				reads[i] = read(cl, c.primary.url, sch.reads[i], epoch)
			}
		}()
	}
	// When the appends run alone after the reads, the writer waits for
	// the reads to finish, and cpu_us_per_op is taken over the reads
	// alone: that phase is what the workload measures, and a one-row
	// append must not count as much as a bulk draw.
	readsDone := make(chan struct{})
	var cpuPR, cpuFR float64
	var errR error
	go func() {
		readWG.Wait()
		if w.ingestShare > 0 {
			cpuPR, cpuFR, errR = c.cpuSeconds()
		}
		close(readsDone)
	}()
	var writes writeOutcome
	wg.Add(1)
	go func() {
		defer wg.Done()
		if w.ingestShare > 0 {
			<-readsDone
		}
		writes = write(newClient(), c, sch.appends, epoch)
	}()
	wg.Wait()
	<-readsDone
	cpuP1, cpuF1, err1 := c.cpuSeconds()
	ticks1, steal1 := hostTicks()
	if err := errors.Join(err1, errR); err != nil {
		return nil, err
	}
	if ticks1 > ticks0 {
		res.steal = (steal1 - steal0) / (ticks1 - ticks0)
	}

	res.attempted += writes.attempted
	res.appendAck, res.visible, res.lagS = writes.appendAck, writes.visible, writes.lagS
	for _, f := range writes.failures {
		res.fail("%s", f)
	}

	// Read responses are checked after the load, so checking costs no
	// CPU while the servers are measured.
	readOps := 0
	for i, o := range sch.reads {
		out := &reads[i]
		if out.slept {
			res.late = append(res.late, out.late)
		}
		res.attempted++
		err := out.err
		if err == nil {
			err = checkRead(o, out.code, out.raw, schemas[o.decl])
		}
		out.raw = nil
		if err != nil {
			res.fail("%s: %v", o.path, err)
			continue
		}
		switch o.kind {
		case opDraw:
			res.draw = append(res.draw, out.lat)
		case opApprox:
			res.approx = append(res.approx, out.lat)
		}
		if o.kind != opScrape {
			readOps++
		}
	}
	res.cpuPrimary, res.cpuFollower = cpuP1-cpuP0, cpuF1-cpuF0
	if w.ingestShare > 0 {
		res.cpuUsPerOp = (cpuPR - cpuP0 + cpuFR - cpuF0) * 1e6 / float64(max(readOps, 1))
	} else {
		res.cpuUsPerOp = (res.cpuPrimary + res.cpuFollower) * 1e6 / float64(max(readOps+writes.acked, 1))
	}
	rssP, err3 := c.primary.peakRSSMiB()
	rssF, err4 := c.follower.peakRSSMiB()
	if err := errors.Join(err3, err4); err != nil {
		return nil, err
	}
	res.rssMiB = rssP + rssF

	cl := newClient()
	if res.primary, err = cl.scrape(c.primary.url); err != nil {
		return nil, err
	}
	if res.follower, err = cl.scrape(c.follower.url); err != nil {
		return nil, err
	}
	res.checkIngest(c, sch)
	c.stop()
	last, err := res.setUpRound(ctx, cfg, w)
	if err != nil {
		return nil, err
	}
	last.stop()
	return res, nil
}

// setUpRound brings the cluster up repeatedly, recording each set-up
// time, and returns the last cluster still running; it stops the others.
func (res *e2eResult) setUpRound(ctx context.Context, cfg config, w workload) (*cluster, error) {
	var spent time.Duration
	for i := 1; ; i++ {
		c, took, err := setupCluster(ctx, cfg, w, len(res.setup))
		if err != nil {
			return nil, err
		}
		res.setup = append(res.setup, took.Seconds())
		spent += took
		if i >= minSetups && (spent >= setupBudget || i >= maxSetups) {
			return c, nil
		}
		c.stop()
	}
}

// waitUntil sleeps until the operation is due. It returns the offset
// the operation's latency is timed from, and how late the generator's
// timer woke if the lane had to wait at all. An operation already
// overdue when its lane frees up waited on the servers, so it is timed
// from when it was due; one whose lane was idle is timed from when the
// timer actually woke, so the generator's own lateness (reported as
// loadgen.late_p99_ms) is not charged to the servers.
func waitUntil(epoch time.Time, due time.Duration) (from, late time.Duration, slept bool) {
	wait := due - time.Since(epoch)
	if wait <= 0 {
		return due, 0, false
	}
	time.Sleep(wait)
	now := time.Since(epoch)
	return now, now - due, true
}

// readOutcome is one read operation's raw result, checked after the
// load.
type readOutcome struct {
	lat, late time.Duration
	slept     bool
	code      int
	raw       []byte
	err       error
}

// read sends one read-lane operation when it is due and times it from
// the offset waitUntil returns.
func read(cl client, url string, o op, epoch time.Time) readOutcome {
	var out readOutcome
	var from time.Duration
	from, out.late, out.slept = waitUntil(epoch, o.due)
	method := http.MethodPost
	if o.kind == opScrape {
		method = http.MethodGet
	}
	out.code, out.raw, out.err = cl.do(method, url+o.path, o.body, nil)
	out.lat = time.Since(epoch) - from
	return out
}

// checkRead validates a read response: status, tuple count, arity,
// schema and predicate for draws; interval and sample count for
// approximate counts; a well-formed body for scrapes.
func checkRead(o op, code int, raw []byte, schema []string) error {
	if code != http.StatusOK {
		return fmt.Errorf("status %d: %s", code, bytes.TrimSpace(raw))
	}
	switch o.kind {
	case opScrape:
		var m metricsScrape
		return json.Unmarshal(raw, &m)
	case opApprox:
		var a struct {
			Value, Lo, Hi float64
			N             int
		}
		if err := json.Unmarshal(raw, &a); err != nil {
			return err
		}
		if !(a.Lo <= a.Value && a.Value <= a.Hi) || a.N != o.n {
			return fmt.Errorf("estimate %g outside [%g, %g] or n %d != %d", a.Value, a.Lo, a.Hi, a.N, o.n)
		}
		return nil
	}
	var d struct {
		Schema []string
		Tuples [][]int64
	}
	if err := json.Unmarshal(raw, &d); err != nil {
		return err
	}
	if !slices.Equal(d.Schema, schema) {
		return fmt.Errorf("schema %v, want %v", d.Schema, schema)
	}
	if len(d.Tuples) != o.n {
		return fmt.Errorf("%d tuples, want %d", len(d.Tuples), o.n)
	}
	col := -1
	if o.where != nil {
		col = slices.Index(schema, o.where.attr)
	}
	for _, t := range d.Tuples {
		if len(t) != len(schema) {
			return fmt.Errorf("tuple arity %d, want %d", len(t), len(schema))
		}
		if col >= 0 && t[col] > o.where.max {
			return fmt.Errorf("tuple %v fails %s <= %d", t, o.where.attr, o.where.max)
		}
	}
	return nil
}

// writeOutcome is what the writer lane measured.
type writeOutcome struct {
	attempted, acked, ackedRows int
	appendAck, visible          latencies
	lagS                        []float64
	failures                    []string
}

// write is the writer lane: each append is sent when due (or as soon as
// the previous one became visible), and after its ack the lane polls
// the follower until the rows show up there.
func write(cl client, c *cluster, appends []op, epoch time.Time) writeOutcome {
	var out writeOutcome
	for _, o := range appends {
		from, _, _ := waitUntil(epoch, o.due)
		code, raw, err := cl.do(http.MethodPost, c.primary.url+o.path, o.body, map[string]string{"Idempotency-Key": o.idem})
		ack := time.Since(epoch)
		out.attempted++
		if err == nil {
			err = checkAppend(o, code, raw)
		}
		var vis time.Duration
		if err == nil {
			var lags []float64
			vis, lags, err = waitVisible(cl, c, c.baseRows+out.ackedRows+len(o.rows))
			out.lagS = append(out.lagS, lags...)
		}
		if err != nil {
			out.failures = append(out.failures, fmt.Sprintf("append: %v", err))
			continue
		}
		out.acked++
		out.ackedRows += len(o.rows)
		out.appendAck = append(out.appendAck, ack-from)
		out.visible = append(out.visible, vis)
	}
	return out
}

func checkAppend(o op, code int, raw []byte) error {
	if code != http.StatusOK {
		return fmt.Errorf("status %d: %s", code, bytes.TrimSpace(raw))
	}
	var a struct {
		Appended                    int
		Refreshed, Durable, Deduped bool
	}
	if err := json.Unmarshal(raw, &a); err != nil {
		return err
	}
	if a.Appended != len(o.rows) || !a.Refreshed || !a.Durable || a.Deduped {
		return fmt.Errorf("ack %+v for %d rows", a, len(o.rows))
	}
	return nil
}

// waitVisible polls the follower until its appendRel row count reaches
// want: at once, then every millisecond, so a lagging follower is not
// flooded with scrapes that would slow the primary's next append. It
// returns the time from the call, just after the ack, until a poll
// showed the rows, with the follower lag each poll saw.
func waitVisible(cl client, c *cluster, want int) (time.Duration, []float64, error) {
	start := time.Now()
	var lags []float64
	for time.Since(start) < 10*time.Second {
		m, err := cl.scrape(c.follower.url)
		if err != nil {
			return 0, lags, err
		}
		_, _, _, lag := m.followerTotals()
		lags = append(lags, lag)
		if m.rows(c.keys[0]) >= want {
			return time.Since(start), lags, nil
		}
		time.Sleep(time.Millisecond)
	}
	return 0, lags, fmt.Errorf("rows not visible on the follower within 10s")
}

// checkIngest compares acked rows with both servers' row deltas and
// requires clean durability and replication counters.
func (res *e2eResult) checkIngest(c *cluster, sch schedule) {
	acked := len(res.appendAck) * len(sch.appends[0].rows)
	p, f := res.primary.rows(c.keys[0])-c.baseRows, res.follower.rows(c.keys[0])-c.baseRows
	fail := func(format string, args ...any) {
		res.failed++
		res.failures = append(res.failures, fmt.Sprintf(format, args...))
	}
	if p != acked || f != acked {
		fail("acked %d rows, primary grew by %d, follower by %d", acked, p, f)
	}
	if d := res.primary.Durability; d == nil || d.CommitErrors != 0 {
		fail("primary durability %+v", d)
	}
	if _, resyncs, divergences, _ := res.follower.followerTotals(); resyncs != 0 || divergences != 0 {
		fail("follower resyncs %d, divergences %d", resyncs, divergences)
	}
}
