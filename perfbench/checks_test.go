package main

import (
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"entangling/internal/harness"
	"entangling/internal/trace"
	"entangling/internal/workload"
)

const (
	testWarmup  = 4000
	testMeasure = 2000
)

// smallSweep runs three configurations over one workload with tiny
// windows.
func smallSweep(t *testing.T) *harness.SuiteResults {
	t.Helper()
	cfgs, err := configsByName([]string{"no", "nextline", "ideal"})
	if err != nil {
		t.Fatal(err)
	}
	s, err := harness.RunSuiteCtx(context.Background(), workload.CVPSuite(1)[3:], cfgs,
		harness.Options{Warmup: testWarmup, Measure: testMeasure, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestCellIdentitiesRejectCorruptRows(t *testing.T) {
	s := smallSweep(t)
	if err := checkCellIdentities(s.Metrics(), testMeasure); err != nil {
		t.Fatalf("real sweep rejected: %v", err)
	}
	row := func(m harness.SuiteMetrics, cfg string) *harness.RunMetrics {
		for i := range m.Runs {
			if m.Runs[i].Config == cfg {
				return &m.Runs[i]
			}
		}
		t.Fatalf("no %s row", cfg)
		return nil
	}
	for name, corrupt := range map[string]func(m harness.SuiteMetrics){
		"instructions":  func(m harness.SuiteMetrics) { row(m, "nextline").Instructions++ },
		"cycles":        func(m harness.SuiteMetrics) { row(m, "nextline").Cycles++ },
		"ideal misses":  func(m harness.SuiteMetrics) { row(m, "ideal").L1IMisses = 1 },
		"no prefetches": func(m harness.SuiteMetrics) { row(m, "no").Prefetch.Issued = 1 },
		"coverage": func(m harness.SuiteMetrics) {
			c := *row(m, "nextline").Coverage + 0.01
			row(m, "nextline").Coverage = &c
		},
		"coverage above 1": func(m harness.SuiteMetrics) {
			c := 1.5
			row(m, "ideal").Coverage = &c
		},
		"accuracy": func(m harness.SuiteMetrics) { row(m, "nextline").Prefetch.Accuracy = 1.2 },
	} {
		m := s.Metrics()
		corrupt(m)
		if err := checkCellIdentities(m, testMeasure); err == nil {
			t.Errorf("%s: corrupted row accepted", name)
		}
	}
}

func TestJobMetricsRejectFlippedCellMetric(t *testing.T) {
	want, err := metricsExport(smallSweep(t))
	if err != nil {
		t.Fatal(err)
	}
	doc := func(sha string, metrics []byte) []byte {
		b, err := json.Marshal(map[string]any{"metrics_sha256": sha, "metrics": json.RawMessage(metrics)})
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	check := func(raw []byte) error {
		a, err := answerOf(raw)
		if err != nil {
			t.Fatal(err)
		}
		return checkJobMetrics(a, want)
	}
	if err := check(doc(sha256Hex(want), want)); err != nil {
		t.Fatalf("matching answer rejected: %v", err)
	}

	var m harness.SuiteMetrics
	if err := json.Unmarshal(want, &m); err != nil {
		t.Fatal(err)
	}
	m.Runs[1].Cycles++
	flipped, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	if err := check(doc(sha256Hex(want), flipped)); err == nil {
		t.Error("flipped cell metric under the right SHA accepted")
	}
	if err := check(doc(sha256Hex(flipped), flipped)); err == nil {
		t.Error("flipped cell metric with its own SHA accepted")
	}
}

func TestTraceIDRejectsWrongID(t *testing.T) {
	w, err := uploadSource(7, 0)
	if err != nil {
		t.Fatal(err)
	}
	instrs := make([]trace.Instruction, 1000)
	for i := range instrs {
		w.Next(&instrs[i])
	}
	body, err := encodeTrace(instrs)
	if err != nil {
		t.Fatal(err)
	}
	id := sha256Hex(body)
	if err := checkTraceID(id, instrs); err != nil {
		t.Fatalf("right ID rejected: %v", err)
	}
	wrong := "0" + id[1:]
	if wrong == id {
		wrong = "1" + id[1:]
	}
	if err := checkTraceID(wrong, instrs); err == nil {
		t.Error("wrong ID accepted")
	}
	if err := checkTraceID(id, instrs[1:]); err == nil {
		t.Error("ID of other instructions accepted")
	}
}

func TestHitBytesRejectDifferentAnswer(t *testing.T) {
	first := []byte(`{"id":"a","metrics_sha256":"00","metrics":{"runs":[{"cycles":7}]}}`)
	if err := checkHitBytes(first, append([]byte(nil), first...)); err != nil {
		t.Fatalf("identical answer rejected: %v", err)
	}
	hit := []byte(strings.Replace(string(first), `"cycles":7`, `"cycles":8`, 1))
	if err := checkHitBytes(first, hit); err == nil {
		t.Error("different answer accepted")
	}
}

func TestCountersRejectMismatch(t *testing.T) {
	text := "# HELP x y\n# TYPE entangling_cells_simulated_total counter\nentangling_cells_simulated_total 12\n" +
		"entangling_tenant_jobs_submitted_total{tenant=\"a\"} 3\nentangling_jobs_deduped_total 4\n"
	got, err := parseCounters(text)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]uint64{"entangling_cells_simulated_total": 12, "entangling_jobs_deduped_total": 4, "entangling_cells_shared_total": 0}
	if err := checkCounters(got, want); err != nil {
		t.Fatalf("matching tally rejected: %v", err)
	}
	for name := range want {
		bad := map[string]uint64{}
		for k, v := range want {
			bad[k] = v
		}
		bad[name]++
		if err := checkCounters(got, bad); err == nil {
			t.Errorf("tally with %s off by one accepted", name)
		}
	}
	if _, err := parseCounters("entangling_jobs_deduped_total x\n"); err == nil {
		t.Error("malformed sample accepted")
	}
}

func TestPlanRoundIsSeededAndColdEveryRound(t *testing.T) {
	a, b := planRound(3, 1, 5, 2), planRound(3, 1, 5, 2)
	if fmt.Sprint(a) != fmt.Sprint(b) {
		t.Fatal("same seed, client and round planned different requests")
	}
	seen := map[uint64]bool{}
	for r := 0; r < 50; r++ {
		for c := 0; c < 2; c++ {
			w := planRound(3, c, r, 2).a.Warmup
			if seen[w] {
				t.Fatalf("round %d client %d reuses window %d", r, c, w)
			}
			seen[w] = true
		}
	}
}
