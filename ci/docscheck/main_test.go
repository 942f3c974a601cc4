package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestCheckLinks(t *testing.T) {
	root := t.TempDir()
	if err := os.MkdirAll(filepath.Join(root, "docs"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(root, "README.md"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	md := strings.Join([]string{
		"[ok](../README.md)",
		"[anchor ok](../README.md#section)",
		"[web](https://example.com/x) [mail](mailto:a@b.c) [frag](#here)",
		"[broken](missing.md)",
	}, "\n")
	problems := checkLinks(root, filepath.Join("docs", "API.md"), md)
	if len(problems) != 1 || !strings.Contains(problems[0], "missing.md") {
		t.Fatalf("problems = %v, want exactly the broken link", problems)
	}
}

func TestCheckDocRefs(t *testing.T) {
	root := t.TempDir()
	for _, f := range []string{"README.md", "docs/ARCHITECTURE.md", "bench/README.md"} {
		if err := os.MkdirAll(filepath.Join(root, filepath.Dir(f)), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(root, f), []byte("x"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	src := strings.Join([]string{
		"// See README.md and docs/ARCHITECTURE.md; fixtures like missing.md are exempt.",
		"// The rationale is in DESIGN.md §1, the numbers in docs/EXPERIMENTS.md.",
		`var note = "see DESIGN.md"`,
	}, "\n")
	problems := checkDocRefs(root, filepath.Join("internal", "gen", "gen.go"), src)
	if len(problems) != 3 || !strings.Contains(problems[0], "gen.go:2: reference to DESIGN.md") ||
		!strings.Contains(problems[1], "docs/EXPERIMENTS.md") || !strings.Contains(problems[2], "gen.go:3") {
		t.Fatalf("problems = %v, want the two DESIGN.md and the one EXPERIMENTS.md reference", problems)
	}
	// A bare name also resolves beside the file that mentions it.
	if p := checkDocRefs(root, filepath.Join("bench", "main.go"), "// See README.md."); len(p) != 0 {
		t.Fatalf("sibling document flagged: %v", p)
	}
	if err := os.Remove(filepath.Join(root, "README.md")); err != nil {
		t.Fatal(err)
	}
	if p := checkDocRefs(root, filepath.Join("internal", "gen", "gen.go"), "// See README.md."); len(p) != 1 {
		t.Fatalf("missing top-level document not flagged: %v", p)
	}
}

func TestExtractAndCheckGoBlocks(t *testing.T) {
	md := "intro\n```go\npackage main\n\nfunc main() {}\n```\nmiddle\n```text\nnot go\n```\n```go\nx := 1\n```\n"
	blocks := extractGoBlocks("docs/X.md", md)
	if len(blocks) != 2 {
		t.Fatalf("extracted %d blocks, want 2", len(blocks))
	}
	if p := checkGoBlock(blocks[0]); len(p) != 0 {
		t.Fatalf("well-formed snippet flagged: %v", p)
	}
	// The fragment has no package clause.
	if p := checkGoBlock(blocks[1]); len(p) != 1 || !strings.Contains(p[0], "package clause") {
		t.Fatalf("fragment not flagged: %v", p)
	}
	// Unformatted code is flagged.
	bad := goBlock{file: "docs/X.md", line: 1, code: "package main\n\nfunc main()   {}\n"}
	if p := checkGoBlock(bad); len(p) != 1 || !strings.Contains(p[0], "gofmt") {
		t.Fatalf("unformatted snippet not flagged: %v", p)
	}
}

func TestFlagTablesMatchUsage(t *testing.T) {
	md := strings.Join([]string{
		"## cmd/svc flags",
		"",
		"| Flag | Default | Meaning |",
		"| --- | --- | --- |",
		"| `-graph FILE` | | graph file |",
		"| `-addr` | `:8080` | listen address |",
		"| `-gone N` | `1` | a flag the command no longer has |",
		"",
		"## Removed: old flags",
		"",
		"| `-elsewhere` | | rows outside a flags section are not a table |",
		"",
		"## cmd/worker flags",
		"",
		"Prose first. `-retry` in prose is not a row.",
		"",
		"| `-retry D` | `15s` | re-dial |",
	}, "\n")
	tables := flagTables(md)
	if got := strings.Join(tables["svc"], ","); got != "graph,addr,gone" {
		t.Fatalf("svc table = %q, want graph,addr,gone", got)
	}
	if got := strings.Join(tables["worker"], ","); got != "retry" || len(tables) != 2 {
		t.Fatalf("tables = %v, want svc and worker [retry]", tables)
	}
	usage := strings.Join([]string{
		"Usage of svc:",
		"  -addr string",
		"    \tlisten address (default \":8080\")",
		"  -graph string",
		"    \tgraph file",
		"  -recover",
		"    \theal a poisoned session",
	}, "\n")
	printed := usageFlags(usage)
	if got := strings.Join(printed, ","); got != "addr,graph,recover" {
		t.Fatalf("usage flags = %q, want addr,graph,recover", got)
	}
	problems := compareFlags("svc", tables["svc"], printed)
	if len(problems) != 2 || !strings.Contains(problems[0], "prints flag -recover") ||
		!strings.Contains(problems[1], "lists -gone") {
		t.Fatalf("problems = %v, want the undocumented -recover and the stale -gone", problems)
	}
	if p := compareFlags("worker", tables["worker"], []string{"retry"}); len(p) != 0 {
		t.Fatalf("matching table flagged: %v", p)
	}
}

// TestRunAgainstRepo runs the full check (links + snippet compile) against
// this repository's actual documentation — the same invocation CI uses.
func TestRunAgainstRepo(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles doc snippets; skipped in -short")
	}
	if problems := run("../.."); len(problems) != 0 {
		t.Fatalf("repo docs fail docscheck:\n%s", strings.Join(problems, "\n"))
	}
}
