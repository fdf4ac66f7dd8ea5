package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"reflect"
	"regexp"
	"runtime"
	"slices"
	"strings"
	"testing"

	"github.com/fragmd/fragmd/internal/bench"
)

// TestCLIDocMatchesFlags pins the mbebench table in docs/CLI.md to the
// real flag set via flag.VisitAll, row for row, help text included:
// adding, removing, re-defaulting or re-describing a flag without
// updating the manual fails here. (The fragmd sections are checked by
// the sibling test in cmd/fragmd.)
func TestCLIDocMatchesFlags(t *testing.T) {
	var fs *flag.FlagSet
	testHookFlagSet = func(got *flag.FlagSet) { fs = got }
	defer func() { testHookFlagSet = nil }()
	run(nil, io.Discard, io.Discard)
	if fs == nil {
		t.Fatal("run() never registered a flag set")
	}

	data, err := os.ReadFile("../../docs/CLI.md")
	if err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile("^\\| `-([^`]+)` \\|")
	doc := map[string]string{}
	inSection := false
	for _, ln := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(ln, "## ") {
			inSection = strings.TrimSpace(strings.TrimPrefix(ln, "## ")) == "mbebench"
			continue
		}
		if m := name.FindStringSubmatch(ln); inSection && m != nil {
			doc[m[1]] = strings.TrimSpace(ln)
		}
	}
	if len(doc) == 0 {
		t.Fatal(`docs/CLI.md has no flag table under "## mbebench"`)
	}

	fs.VisitAll(func(f *flag.Flag) {
		def := ""
		if f.DefValue != "" {
			def = "`" + f.DefValue + "`"
		}
		want := fmt.Sprintf("| `-%s` | %s | %s |", f.Name, def, strings.ReplaceAll(f.Usage, "|", `\|`))
		got, ok := doc[f.Name]
		if !ok {
			t.Errorf("docs/CLI.md mbebench table is missing -%s; add:\n%s", f.Name, want)
			return
		}
		if got != want {
			t.Errorf("docs/CLI.md documents mbebench -%s as\n%s\nthe flag says\n%s", f.Name, got, want)
		}
		delete(doc, f.Name)
	})
	for name := range doc {
		t.Errorf("docs/CLI.md documents mbebench -%s, which the binary does not define", name)
	}
}

// TestDesignIndexMatchesRegistry pins the DESIGN.md §4 experiment table
// to bench.Experiments: one row per experiment, in registry order, with
// its alias and its function.
func TestDesignIndexMatchesRegistry(t *testing.T) {
	data, err := os.ReadFile("../../DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	row := regexp.MustCompile("^\\| `([^`]+)`(?: / `([^`]+)`)? \\|[^|]*\\| `bench\\.(\\w+)` \\|$")
	var doc []string
	inSection := false
	for _, ln := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(ln, "## ") {
			inSection = strings.HasPrefix(ln, "## §4 ")
			continue
		}
		if m := row.FindStringSubmatch(ln); inSection && m != nil {
			doc = append(doc, m[1]+" "+m[2]+" "+m[3])
		}
	}
	var reg []string
	for _, e := range bench.Experiments {
		fn := runtime.FuncForPC(reflect.ValueOf(e.Run).Pointer()).Name()
		reg = append(reg, e.Name+" "+e.Alias+" "+fn[strings.LastIndex(fn, ".")+1:])
	}
	if !slices.Equal(doc, reg) {
		t.Errorf("DESIGN.md §4 lists (experiment alias function)\n  %s\nbench.Experiments registers\n  %s",
			strings.Join(doc, "\n  "), strings.Join(reg, "\n  "))
	}
}
