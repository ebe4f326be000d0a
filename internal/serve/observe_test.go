package serve

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"
	"time"
)

// slowJSON is a payload whose encoding takes a known time.
type slowJSON struct{ d time.Duration }

func (p slowJSON) MarshalJSON() ([]byte, error) {
	time.Sleep(p.d)
	return []byte(`{}`), nil
}

// TestEndpointLatencyCoversWrite checks that an endpoint's latency
// histogram covers encoding and writing the response, on both the
// direct path and the deadline-watchdog path.
func TestEndpointLatencyCoversWrite(t *testing.T) {
	const encode = 20 * time.Millisecond
	for _, tc := range []struct {
		name    string
		admit   bool
		timeout time.Duration
	}{
		{"direct", false, 0},
		{"watchdog", true, time.Minute},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := New(Config{RequestTimeout: tc.timeout})
			defer s.Close()
			h := s.handle("slow_"+tc.name, tc.admit, func(*http.Request) (any, error) {
				return slowJSON{encode}, nil
			})
			rec := httptest.NewRecorder()
			h(rec, httptest.NewRequest(http.MethodPost, "/", nil))
			if rec.Code != http.StatusOK {
				t.Fatalf("status %d", rec.Code)
			}
			m := s.metrics.endpoint("slow_" + tc.name)
			if m.ops.Load() != 1 {
				t.Fatalf("ops = %d, want 1", m.ops.Load())
			}
			e := m.epoch.Load()
			for b := 0; b < latBucket(encode); b++ {
				if m.lat[e][b].Load() != 0 {
					t.Fatalf("latency landed in bucket %d, below the %v encode (bucket %d)", b, encode, latBucket(encode))
				}
			}
		})
	}
}

// TestRefreshHistogram checks that an append is timed into the
// session_refresh histogram on the primary, and that the follower's
// apply of the same rows is timed into its own.
func TestRefreshHistogram(t *testing.T) {
	decl := quickDecl()
	key, _ := decl.Key()
	sP, tsP := startServerAt(t, "", replCfg(t.TempDir()))
	defer func() {
		sP.Close()
		tsP.Close()
	}()
	seededDraw(t, tsP.URL, decl, 2, 1)
	refreshes := func(s *Server) int64 { return s.metrics.endpoint("session_refresh").ops.Load() }
	if n := refreshes(sP); n != 0 {
		t.Fatalf("primary refreshes before any append = %d", n)
	}

	fcfg := replCfg(t.TempDir())
	fcfg.FollowPrimary = tsP.URL
	sF, tsF := startServerAt(t, "", fcfg)
	defer func() {
		sF.Close()
		tsF.Close()
	}()
	if err := sF.StartFollower(25 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "follower session prepare", func() bool {
		_, ok := sF.Registry().Lookup(key)
		return ok
	})
	eF, _ := sF.Registry().Lookup(key)
	before := refreshes(sF)

	var ap appendResponse
	if code := post(t, tsP.URL+"/relation/nation/append", appendRequest{Union: decl, Rows: [][]int64{{300, 1, 1}}}, &ap); code != http.StatusOK || !ap.Refreshed {
		t.Fatalf("append: status %d %+v", code, ap)
	}
	if n := refreshes(sP); n != 1 {
		t.Fatalf("primary session_refresh ops = %d after one append, want 1", n)
	}
	eP, _ := sP.Registry().Lookup(key)
	want := eP.Rels["nation"].Version()
	waitFor(t, "follower apply", func() bool {
		return eF.Rels["nation"].Version() == want && refreshes(sF) > before
	})
	var m metricsResponse
	resp, err := http.Get(tsF.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	if ep := m.Endpoints["session_refresh"]; ep.Ops < 1 || ep.Errors != 0 || ep.P50us <= 0 {
		t.Fatalf("follower /metrics session_refresh = %+v", ep)
	}
}

// TestWorkloadKeyAllocs bounds the bytes a workload declaration's key
// allocates: an empty spec must not pay for a spec-sized scan buffer.
func TestWorkloadKeyAllocs(t *testing.T) {
	decl := quickDecl()
	if _, err := decl.Key(); err != nil {
		t.Fatal(err)
	}
	const calls = 50
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < calls; i++ {
		if _, err := decl.Key(); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / calls; per >= 64<<10 {
		t.Fatalf("Key() allocates %.1f KiB per call, want < 64 KiB", float64(per)/1024)
	}
}
