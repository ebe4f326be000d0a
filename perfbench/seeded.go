package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"

	"sampleunion"
	"sampleunion/internal/serve"
)

// seededN is the size of the fixed-seed draw compared per declaration.
const seededN = 32

// seededCheck asks the fresh primary for one fixed-seed draw per
// declaration and later compares each with an in-process
// Session.SampleBatchSeeded on the same declaration, byte for byte.
type seededCheck struct {
	decls []serve.UnionDecl
	seeds []int64
	got   [][]byte // the served "tuples" JSON, per declaration
}

func newSeededCheck(w workload, seed int64) *seededCheck {
	s := &seededCheck{}
	for i, d := range w.decls {
		s.decls = append(s.decls, d.decl)
		s.seeds = append(s.seeds, seed*1000+int64(i)+1)
	}
	return s
}

// fetch runs before any other draw, while the served sessions are in
// their freshly prepared state.
func (s *seededCheck) fetch(cl client, url string) error {
	s.got = s.got[:0]
	for i, d := range s.decls {
		body, err := json.Marshal(sampleBody{Union: d, N: seededN, Seed: &s.seeds[i]})
		if err != nil {
			return err
		}
		code, raw, err := cl.do(http.MethodPost, url+"/sample", body, nil)
		if err != nil {
			return err
		}
		if code != http.StatusOK {
			return fmt.Errorf("seeded /sample: status %d: %s", code, bytes.TrimSpace(raw))
		}
		var resp struct{ Tuples json.RawMessage }
		if err := json.Unmarshal(raw, &resp); err != nil {
			return err
		}
		s.got = append(s.got, resp.Tuples)
	}
	return nil
}

// verify prepares every declaration in-process, one at a time, and
// compares the encoded seeded draws with what the server sent.
func (s *seededCheck) verify() error {
	for i, d := range s.decls {
		reg := serve.NewRegistry("", 1)
		e, err := reg.Get(d)
		if err != nil {
			return err
		}
		tuples, _, err := e.Sess.SampleBatchSeeded(seededN, s.seeds[i])
		if err != nil {
			return err
		}
		want, err := json.Marshal(wireTuples(tuples))
		if err != nil {
			return err
		}
		if !bytes.Equal(want, s.got[i]) {
			return fmt.Errorf("seeded draw %d differs from in-process SampleBatchSeeded", i)
		}
	}
	return nil
}

// wireTuples converts tuples to the JSON response shape.
func wireTuples(ts []sampleunion.Tuple) [][]int64 {
	out := make([][]int64, len(ts))
	for i, t := range ts {
		out[i] = make([]int64, len(t))
		for j, v := range t {
			out[i][j] = int64(v)
		}
	}
	return out
}
