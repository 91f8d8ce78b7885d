package main

import (
	"strings"
	"testing"
)

func seq(n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = float64(n - i) // descending, so percentile must sort
	}
	return v
}

func TestPercentileNearestRank(t *testing.T) {
	for _, tc := range []struct {
		n    int
		p    float64
		want float64
	}{
		{100, 50, 50},
		{100, 90, 90},
		{101, 50, 51},
		{101, 90, 91},
		{21, 50, 11},
		{200, 90, 180},
	} {
		got, err := percentile(seq(tc.n), tc.p)
		if err != nil || got != tc.want {
			t.Errorf("p%g of 1..%d = %v, %v; want %v", tc.p, tc.n, got, err, tc.want)
		}
	}
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n  int
		p  float64
		ok bool
	}{
		{20, 50, true},  // rank 10, 10 beyond
		{19, 50, false}, // rank 10, 9 beyond
		{100, 90, true}, // rank 90, 10 beyond
		{99, 90, false}, // rank 90, 9 beyond
		{0, 50, false},
		{1000, 99, true},
		{999, 99, false},
	} {
		_, err := percentile(seq(tc.n), tc.p)
		if (err == nil) != tc.ok {
			t.Errorf("p%g of %d samples: err %v, want ok=%v", tc.p, tc.n, err, tc.ok)
		}
	}
}

func TestPercentileLeavesInputAlone(t *testing.T) {
	v := seq(30)
	if _, err := percentile(v, 50); err != nil {
		t.Fatal(err)
	}
	if v[0] != 30 || v[29] != 1 {
		t.Fatalf("input reordered: %v", v)
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median of 3 values = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of 4 values = %v", got)
	}
}

func TestSetTailFailsWithoutEnoughSamples(t *testing.T) {
	o := &outcome{metrics: map[string]metric{}}
	o.setTail("cold_job", seq(99))
	if _, ok := o.metrics["cold_job_p50_ms"]; !ok {
		t.Error("p50 of 99 samples not reported")
	}
	if _, ok := o.metrics["cold_job_p90_ms"]; ok {
		t.Error("p90 of 99 samples reported with 9 beyond it")
	}
	if len(o.errs) != 1 || !strings.Contains(o.errs[0], "cold_job") {
		t.Errorf("errs = %v, want one naming cold_job", o.errs)
	}
}
