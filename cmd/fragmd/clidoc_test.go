package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"strings"
	"testing"
)

// captureFlagSet runs the CLI far enough to register every flag of the
// surface selected by argv and returns the FlagSet via the pre-Parse
// test hook (the run itself fails fast on validation and is ignored).
func captureFlagSet(t *testing.T, argv []string) *flag.FlagSet {
	t.Helper()
	var got *flag.FlagSet
	testHookFlagSet = func(fs *flag.FlagSet) { got = fs }
	defer func() { testHookFlagSet = nil }()
	run(argv, io.Discard, io.Discard)
	if got == nil {
		t.Fatalf("run(%q) never registered a flag set", argv)
	}
	return got
}

// docFlagRow renders the canonical docs/CLI.md table row for a flag —
// the exact form the cross-check expects, offered in failure messages
// so fixing the doc is a copy-paste.
func docFlagRow(f *flag.Flag) string {
	def := ""
	if f.DefValue != "" {
		def = "`" + f.DefValue + "`"
	}
	usage := strings.ReplaceAll(f.Usage, "|", `\|`)
	return fmt.Sprintf("| `-%s` | %s | %s |", f.Name, def, usage)
}

// parseDocSection returns flag name → documented table row for the
// table under the given "## header" section of docs/CLI.md.
func parseDocSection(t *testing.T, path, header string) map[string]string {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	row := regexp.MustCompile("^\\|\\s*`-([^`]+)`\\s*\\|")
	flags := map[string]string{}
	inSection := false
	for _, ln := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(ln, "## ") {
			inSection = strings.TrimSpace(strings.TrimPrefix(ln, "## ")) == header
			continue
		}
		if !inSection {
			continue
		}
		if m := row.FindStringSubmatch(ln); m != nil {
			flags[m[1]] = strings.TrimSpace(ln)
		}
	}
	if len(flags) == 0 {
		t.Fatalf("docs/CLI.md has no flag table under %q", "## "+header)
	}
	return flags
}

// checkDocSection cross-checks one CLI surface against its docs/CLI.md
// table: every registered flag must be documented by its canonical row
// (name, default and help text), and every documented flag must exist.
func checkDocSection(t *testing.T, path, header string, fs *flag.FlagSet) {
	t.Helper()
	doc := parseDocSection(t, path, header)
	fs.VisitAll(func(f *flag.Flag) {
		got, ok := doc[f.Name]
		want := docFlagRow(f)
		if !ok {
			t.Errorf("docs/CLI.md %q table is missing -%s; add:\n%s", header, f.Name, want)
			return
		}
		if got != want {
			t.Errorf("docs/CLI.md %q documents -%s as\n%s\nthe flag says\n%s", header, f.Name, got, want)
		}
		delete(doc, f.Name)
	})
	for name := range doc {
		t.Errorf("docs/CLI.md %q documents -%s, which %s does not define", header, name, header)
	}
}

// TestCLIDocMatchesFlags pins docs/CLI.md to the real flag sets via
// flag.VisitAll: adding, removing, re-defaulting or re-wording any
// fragmd flag without updating the manual fails here.
func TestCLIDocMatchesFlags(t *testing.T) {
	const doc = "../../docs/CLI.md"
	for _, c := range []struct {
		header string
		argv   []string
	}{
		{"fragmd", nil},
		{"fragmd worker", []string{"worker"}},
		{"fragmd coordinate", []string{"coordinate"}},
		{"fragmd serve", []string{"serve"}},
	} {
		checkDocSection(t, doc, c.header, captureFlagSet(t, c.argv))
	}
}
