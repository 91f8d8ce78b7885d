package cpu

import (
	"context"
	"errors"
	"testing"

	_ "entangling/internal/core" // register entangling prefetchers
	"entangling/internal/prefetch"
	"entangling/internal/workload"
)

// srvTrace materializes a srv stream that several machines under test
// replay from the start.
func srvTrace(t *testing.T, seed, n uint64) *workload.Trace {
	t.Helper()
	p := workload.Preset(workload.Srv)
	p.Name = "srv"
	p.Seed = seed
	tr, err := workload.Materialize(workload.Spec{Name: "srv", Params: p}, n)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// TestMachineSingleUse holds the "a Machine must not be reused across
// runs" contract: every second use of a consumed machine fails loudly.
func TestMachineSingleUse(t *testing.T) {
	tr := srvTrace(t, 22, 60_000)

	t.Run("second Run panics", func(t *testing.T) {
		m := New(DefaultConfig())
		m.Run(tr.Source(), 30_000)
		defer func() {
			if r := recover(); !errors.Is(r.(error), ErrMachineUsed) {
				t.Errorf("panic %v, want ErrMachineUsed", r)
			}
		}()
		m.Run(tr.Source(), 30_000)
		t.Fatal("second Run did not panic")
	})

	t.Run("second RunWindows panics", func(t *testing.T) {
		m := New(DefaultConfig())
		m.RunWindows(tr.Source(), 20_000, 20_000)
		defer func() {
			if r := recover(); !errors.Is(r.(error), ErrMachineUsed) {
				t.Errorf("panic %v, want ErrMachineUsed", r)
			}
		}()
		m.RunWindows(tr.Source(), 20_000, 20_000)
		t.Fatal("second RunWindows did not panic")
	})

	t.Run("ctx entry points return typed errors", func(t *testing.T) {
		ctx := context.Background()
		m := New(DefaultConfig())
		if _, err := m.MeasureCtx(ctx, tr.Source(), 10_000); !errors.Is(err, ErrNotWarmed) {
			t.Errorf("MeasureCtx on idle machine: %v, want ErrNotWarmed", err)
		}
		if _, err := m.RunWindowsCtx(ctx, tr.Source(), 20_000, 20_000); err != nil {
			t.Fatal(err)
		}
		if err := m.WarmupCtx(ctx, tr.Source(), 10_000); !errors.Is(err, ErrMachineUsed) {
			t.Errorf("WarmupCtx on consumed machine: %v, want ErrMachineUsed", err)
		}
		if _, err := m.MeasureCtx(ctx, tr.Source(), 10_000); !errors.Is(err, ErrMachineUsed) {
			t.Errorf("MeasureCtx on consumed machine: %v, want ErrMachineUsed", err)
		}
	})
}

// TestMeasureStateErrors covers measuring a machine without a completed
// warmup: an idle machine is not warm, and a canceled warmup leaves the
// machine consumed — its partial state must never be measured as if the
// warmup had finished.
func TestMeasureStateErrors(t *testing.T) {
	tr := srvTrace(t, 23, 300_000)
	m := New(DefaultConfig())
	if _, err := m.MeasureCtx(context.Background(), tr.Source(), 20_000); !errors.Is(err, ErrNotWarmed) {
		t.Errorf("MeasureCtx on idle machine: %v, want ErrNotWarmed", err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	m = New(DefaultConfig())
	if err := m.WarmupCtx(ctx, tr.Source(), 200_000); !errors.Is(err, context.Canceled) {
		t.Fatalf("WarmupCtx under canceled ctx: %v", err)
	}
	if _, err := m.MeasureCtx(context.Background(), tr.Source(), 20_000); !errors.Is(err, ErrMachineUsed) {
		t.Errorf("MeasureCtx after canceled warmup: %v, want ErrMachineUsed", err)
	}
}

// TestWindowedLeadQuantiles pins the lead quantiles of a windowed run to
// the measurement window: RunWindows' LeadP50/LeadP99 must equal the
// quantiles of the lead histogram's growth across MeasureCtx on a twin
// machine. On this stream the warmup's leads are shorter than the
// measured ones, so a window start that aliased the live histogram
// (diff empty) or skipped windowing (whole run) fails the comparison.
func TestWindowedLeadQuantiles(t *testing.T) {
	const warmup, measure = 150_000, 100_000
	tr := srvTrace(t, 31, warmup+measure)
	cfg := DefaultConfig()
	cfg.Prefetcher = func(i prefetch.Issuer) prefetch.Prefetcher {
		pf, err := prefetch.New("entangling-4k", i)
		if err != nil {
			t.Fatal(err)
		}
		return pf
	}

	got := New(cfg).RunWindows(tr.Source(), warmup, measure)

	twin := New(cfg)
	ctx := context.Background()
	src := tr.Source()
	if err := twin.WarmupCtx(ctx, src, warmup); err != nil {
		t.Fatal(err)
	}
	start := twin.LeadHistogram().Clone()
	if _, err := twin.MeasureCtx(ctx, src, measure); err != nil {
		t.Fatal(err)
	}
	full := twin.LeadHistogram()
	window := full.Sub(start)

	if window.Total() == 0 {
		t.Fatal("measured window recorded no timely-prefetch leads")
	}
	if full.Quantile(0.50) == window.Quantile(0.50) {
		t.Fatalf("whole-run and windowed lead p50 agree (%d): the stream does not tell them apart",
			window.Quantile(0.50))
	}
	if got.LeadP50 != window.Quantile(0.50) || got.LeadP99 != window.Quantile(0.99) {
		t.Errorf("RunWindows leads p50/p99 = %d/%d, measured-window histogram gives %d/%d",
			got.LeadP50, got.LeadP99, window.Quantile(0.50), window.Quantile(0.99))
	}
}
