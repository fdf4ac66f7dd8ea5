package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
)

// ReportHeader is the provenance every machine-readable report opens
// with: its schema and the machine and size class it was measured on.
// The report types embed it, so encoding/json writes its fields at the
// top level of each file.
type ReportHeader struct {
	Schema string `json:"schema"`
	GoOS   string `json:"goos"`
	GoArch string `json:"goarch"`
	NumCPU int    `json:"numcpu"`
	Quick  bool   `json:"quick"`
}

// newHeader describes a report of schema measured on this machine.
func newHeader(schema string, quick bool) ReportHeader {
	return ReportHeader{Schema: schema, GoOS: runtime.GOOS, GoArch: runtime.GOARCH, NumCPU: runtime.NumCPU(), Quick: quick}
}

func (h *ReportHeader) header() *ReportHeader { return h }

// Report is a machine-readable report: GemmBenchReport,
// EvalCostReport, NeighborBenchReport or ServeBenchReport.
type Report interface{ header() *ReportHeader }

// WriteReport writes r to path as indented JSON.
func WriteReport(path string, r Report) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// LoadReport reads a report written by WriteReport into r and refuses
// it unless its schema is schema.
func LoadReport(path, schema string, r Report) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, r); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	if got := r.header().Schema; got != schema {
		return fmt.Errorf("%s: schema %q, want %q", path, got, schema)
	}
	return nil
}

// publish writes rep to c.BenchJSON and gates it against the report at
// c.Baseline with compare, when each is set. Every write, load or gate
// problem is recorded with c.fail.
func publish[R any, P interface {
	*R
	Report
}](c *Config, rep P, compare func(baseline, current P, maxRegressPct float64) []string) {
	if c.BenchJSON != "" {
		if err := WriteReport(c.BenchJSON, rep); err != nil {
			c.fail(fmt.Sprintf("write %s: %v", c.BenchJSON, err))
		} else {
			c.printf("\nwrote %s\n", c.BenchJSON)
		}
	}
	if c.Baseline == "" {
		return
	}
	base := P(new(R))
	if err := LoadReport(c.Baseline, rep.header().Schema, base); err != nil {
		c.fail(fmt.Sprintf("load baseline: %v", err))
		return
	}
	if b, h := base.header(), rep.header(); b.GoOS != h.GoOS || b.GoArch != h.GoArch || b.NumCPU != h.NumCPU {
		c.printf("note: baseline machine (%s/%s, %d cpu) differs from this one (%s/%s, %d cpu);\n"+
			"      gates on absolute numbers are weak across machine classes.\n",
			b.GoOS, b.GoArch, b.NumCPU, h.GoOS, h.GoArch, h.NumCPU)
	}
	viol := compare(base, rep, c.MaxRegressPct)
	if len(viol) == 0 {
		c.printf("baseline %s: every gated number within its bound — OK\n", c.Baseline)
	}
	for _, v := range viol {
		c.fail(v)
	}
}
