package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strconv"
	"strings"

	"entangling/internal/harness"
	"entangling/internal/trace"
)

// This file holds the benchmark's correctness checks. Each compares an
// output of the program with a property it must have or with a value
// the benchmark computed separately; none compares with a stored copy.

// checkCellIdentities checks the simulator's identities on every row of
// a sweep's metrics export. Coverage has no lower bound: a prefetcher
// that evicts useful lines adds misses, and its coverage is negative.
func checkCellIdentities(m harness.SuiteMetrics, measure uint64) error {
	if len(m.Runs) == 0 {
		return fmt.Errorf("metrics export has no rows")
	}
	baseMisses := map[string]uint64{}
	for _, r := range m.Runs {
		if r.Config == "no" {
			baseMisses[r.Workload] = r.L1IMisses
		}
	}
	for _, r := range m.Runs {
		cell := r.Config + "/" + r.Workload
		switch {
		case r.Instructions != measure:
			return fmt.Errorf("%s: measured %d instructions, window is %d", cell, r.Instructions, measure)
		case r.Cycles == 0 || r.IPC != float64(r.Instructions)/float64(r.Cycles):
			return fmt.Errorf("%s: IPC %v is not %d instructions / %d cycles", cell, r.IPC, r.Instructions, r.Cycles)
		case r.Config == "ideal" && r.L1IMisses != 0:
			return fmt.Errorf("%s: ideal L1I has %d demand misses", cell, r.L1IMisses)
		case r.Config == "no" && (r.Prefetch.Requested != 0 || r.Prefetch.Issued != 0):
			return fmt.Errorf("%s: no-prefetcher cell requested %d and issued %d prefetches",
				cell, r.Prefetch.Requested, r.Prefetch.Issued)
		case r.Coverage != nil && *r.Coverage > 1:
			return fmt.Errorf("%s: coverage %v above 1", cell, *r.Coverage)
		case r.Coverage != nil && *r.Coverage != 1-float64(r.L1IMisses)/float64(baseMisses[r.Workload]):
			return fmt.Errorf("%s: coverage %v is not 1 - %d misses / %d baseline misses",
				cell, *r.Coverage, r.L1IMisses, baseMisses[r.Workload])
		case r.Prefetch.Accuracy < 0 || r.Prefetch.Accuracy > 1:
			return fmt.Errorf("%s: accuracy %v outside [0, 1]", cell, r.Prefetch.Accuracy)
		}
	}
	return nil
}

// metricsExport renders a sweep's metrics exactly as the harness and
// the job server serialise them.
func metricsExport(s *harness.SuiteResults) ([]byte, error) {
	var buf bytes.Buffer
	if err := harness.WriteMetricsJSON(&buf, s.Metrics()); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func sha256Hex(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// answer is what the benchmark keeps of a job's result document: the
// SHA-256 the server states for its metrics export, and the SHA-256 of
// the export itself, compacted.
type answer struct {
	statedSHA, metricsSHA string
}

// answerOf reads a result document.
func answerOf(raw []byte) (answer, error) {
	var doc struct {
		MetricsSHA256 string          `json:"metrics_sha256"`
		Metrics       json.RawMessage `json:"metrics"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		return answer{}, fmt.Errorf("decoding result: %w", err)
	}
	var compact bytes.Buffer
	if err := json.Compact(&compact, doc.Metrics); err != nil {
		return answer{}, fmt.Errorf("compacting result metrics: %w", err)
	}
	return answer{statedSHA: doc.MetricsSHA256, metricsSHA: sha256Hex(compact.Bytes())}, nil
}

// checkJobMetrics compares a job's answer with the metrics export of a
// direct harness run of the same cells.
func checkJobMetrics(got answer, want []byte) error {
	if exp := sha256Hex(want); got.statedSHA != exp {
		return fmt.Errorf("metrics_sha256 %s, direct run gives %s", got.statedSHA, exp)
	}
	var compact bytes.Buffer
	if err := json.Compact(&compact, want); err != nil {
		return fmt.Errorf("compacting direct export: %w", err)
	}
	if got.metricsSHA != sha256Hex(compact.Bytes()) {
		return fmt.Errorf("metrics differ from the direct run's export")
	}
	return nil
}

// checkHitBytes compares a repeated request's answer with the answer
// the same request got first.
func checkHitBytes(first, hit []byte) error {
	if !bytes.Equal(first, hit) {
		return fmt.Errorf("answer (%d bytes, sha %.12s) differs from the first answer (%d bytes, sha %.12s)",
			len(hit), sha256Hex(hit), len(first), sha256Hex(first))
	}
	return nil
}

// encodeTrace writes instrs in the canonical uncompressed ENTRACE1
// form the trace store keeps.
func encodeTrace(instrs []trace.Instruction) ([]byte, error) {
	var buf bytes.Buffer
	w, err := trace.NewWriter(&buf, false)
	if err != nil {
		return nil, err
	}
	for i := range instrs {
		if err := w.Write(&instrs[i]); err != nil {
			return nil, err
		}
	}
	if err := w.Close(); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// checkTraceID compares the ID the server gave an upload with the
// SHA-256 of the canonical encoding of the instructions uploaded.
func checkTraceID(id string, instrs []trace.Instruction) error {
	b, err := encodeTrace(instrs)
	if err != nil {
		return fmt.Errorf("encoding: %w", err)
	}
	if want := sha256Hex(b); id != want {
		return fmt.Errorf("trace ID %s, recomputed SHA-256 is %s", id, want)
	}
	return nil
}

// parseCounters reads the unlabeled samples of a Prometheus text
// exposition.
func parseCounters(text string) (map[string]uint64, error) {
	out := make(map[string]uint64)
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") || strings.Contains(line, "{") {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			return nil, fmt.Errorf("malformed sample %q", line)
		}
		v, err := strconv.ParseUint(val, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("sample %q: %w", line, err)
		}
		out[name] = v
	}
	return out, sc.Err()
}

// checkCounters compares /metrics counters with the benchmark's own
// tally, counter by counter. Absent counters read as zero.
func checkCounters(got map[string]uint64, want map[string]uint64) error {
	for _, name := range sortedKeys(want) {
		if got[name] != want[name] {
			return fmt.Errorf("%s is %d, the benchmark counted %d", name, got[name], want[name])
		}
	}
	return nil
}
