// Command docscheck is the CI documentation gate: it verifies that every
// relative link in the repo's markdown documentation resolves to a real
// file, and that every Go example snippet in docs/ is gofmt-formatted and
// actually compiles against the current tree (so the docs cannot silently
// rot as the API moves).
//
//	go run ./ci/docscheck            # from the repo root
//	go run ./ci/docscheck -root ..   # from elsewhere
//
// Rules:
//
//   - Checked files: README.md, ROADMAP.md, CHANGES.md and docs/*.md.
//   - Links: [text](target) with a non-URL target must point at an existing
//     file or directory, resolved relative to the markdown file ("#anchor"
//     suffixes are stripped; bare "#anchor", http(s) and mailto links are
//     skipped).
//   - Go snippets: every ```go fenced block in docs/*.md must be a complete
//     compilable file — it must carry a package clause, survive gofmt
//     unchanged, and build inside the repo's module (snippets are written
//     to a throwaway package directory and compiled with `go build`).
//     Fragments that are not meant to compile belong in ```text blocks.
//     README snippets are link-checked only: they use elision ("...") for
//     brevity.
//   - Go sources: a comment or string in any .go file of the module that
//     names a markdown document in capitals (DESIGN.md, docs/API.md) must
//     name one that exists, at the repo root or beside the file — the
//     fourteen references to a DESIGN.md that was never written are the
//     class this catches. Lower-case names (test fixtures) and this
//     command's own sources are exempt.
//   - Flag tables: each "## cmd/X flags" section of docs/API.md must list,
//     in its table's first column, exactly the flags `cmd/X -h` prints —
//     a flag added to or deleted from a command cannot leave its table
//     stale in either direction.
package main

import (
	"flag"
	"fmt"
	"go/format"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"sort"
	"strings"
)

// linkRe matches inline markdown links [text](target). Images and reference
// links are out of scope — the repo does not use them.
var linkRe = regexp.MustCompile(`\[[^\]]*\]\(([^)\s]+)\)`)

// docRefRe matches a mention of a markdown document named in capitals, with
// an optional directory prefix: "DESIGN.md", "docs/ARCHITECTURE.md".
var docRefRe = regexp.MustCompile(`(?:[A-Za-z0-9_.-]+/)*[A-Z][A-Z0-9_]*\.md\b`)

// flagHeadingRe matches the heading of a command's flag table in
// docs/API.md: "## cmd/steinersvc flags".
var flagHeadingRe = regexp.MustCompile(`^## cmd/([A-Za-z0-9_-]+) flags$`)

// flagRowRe matches a flag table row and captures the flag's name from its
// first cell: "| `-graph FILE` | ..." or "| `-addr` | ...".
var flagRowRe = regexp.MustCompile("^\\| `-([A-Za-z0-9_-]+)")

// usageFlagRe matches a flag line of the flag package's -h output:
// "  -graph string" or "  -recover".
var usageFlagRe = regexp.MustCompile(`^  -([A-Za-z0-9_-]+)`)

// goBlock is one ```go fenced snippet with its source location.
type goBlock struct {
	file string
	line int // 1-based line of the opening fence
	code string
}

// mdFiles lists the markdown files to check, relative to root.
func mdFiles(root string) ([]string, error) {
	files := []string{}
	for _, name := range []string{"README.md", "ROADMAP.md", "CHANGES.md"} {
		if _, err := os.Stat(filepath.Join(root, name)); err == nil {
			files = append(files, name)
		}
	}
	docs, err := filepath.Glob(filepath.Join(root, "docs", "*.md"))
	if err != nil {
		return nil, err
	}
	for _, d := range docs {
		rel, err := filepath.Rel(root, d)
		if err != nil {
			return nil, err
		}
		files = append(files, rel)
	}
	sort.Strings(files)
	return files, nil
}

// checkLinks verifies every relative link target in file (a path relative
// to root) exists on disk.
func checkLinks(root, file string, content string) []string {
	var problems []string
	for i, line := range strings.Split(content, "\n") {
		for _, m := range linkRe.FindAllStringSubmatch(line, -1) {
			target := m[1]
			if strings.HasPrefix(target, "http://") || strings.HasPrefix(target, "https://") ||
				strings.HasPrefix(target, "mailto:") || strings.HasPrefix(target, "#") {
				continue
			}
			if i := strings.IndexByte(target, '#'); i >= 0 {
				target = target[:i]
			}
			if target == "" {
				continue
			}
			resolved := filepath.Join(root, filepath.Dir(file), target)
			if _, err := os.Stat(resolved); err != nil {
				problems = append(problems, fmt.Sprintf("%s:%d: broken link %q (%s does not exist)",
					file, i+1, m[1], resolved))
			}
		}
	}
	return problems
}

// checkDocRefs reports every markdown document a Go source file (a path
// relative to root) mentions that exists neither relative to the repo root
// nor beside the file.
func checkDocRefs(root, file, content string) []string {
	var problems []string
	for i, line := range strings.Split(content, "\n") {
		for _, ref := range docRefRe.FindAllString(line, -1) {
			_, errRoot := os.Stat(filepath.Join(root, ref))
			_, errLocal := os.Stat(filepath.Join(root, filepath.Dir(file), ref))
			if errRoot != nil && errLocal != nil {
				problems = append(problems, fmt.Sprintf("%s:%d: reference to %s, which does not exist", file, i+1, ref))
			}
		}
	}
	return problems
}

// goFiles lists the module's Go sources relative to root, skipping hidden
// and underscore directories (build outputs, snippet scratch) and this
// command, whose tests name missing documents on purpose.
func goFiles(root string) ([]string, error) {
	var files []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		if d.IsDir() {
			hidden := rel != "." && (d.Name()[0] == '.' || d.Name()[0] == '_')
			if hidden || filepath.ToSlash(rel) == "ci/docscheck" {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(rel, ".go") {
			files = append(files, rel)
		}
		return nil
	})
	return files, err
}

// extractGoBlocks returns every ```go fenced block of content.
func extractGoBlocks(file, content string) []goBlock {
	var blocks []goBlock
	lines := strings.Split(content, "\n")
	for i := 0; i < len(lines); i++ {
		if strings.TrimSpace(lines[i]) != "```go" {
			continue
		}
		start := i + 1
		j := start
		for j < len(lines) && strings.TrimSpace(lines[j]) != "```" {
			j++
		}
		blocks = append(blocks, goBlock{
			file: file,
			line: i + 1,
			code: strings.Join(lines[start:j], "\n") + "\n",
		})
		i = j
	}
	return blocks
}

// checkGoBlock verifies one snippet is a complete, gofmt-clean Go file.
// The compile step happens afterwards over all snippets at once.
func checkGoBlock(b goBlock) []string {
	var problems []string
	if !strings.Contains(b.code, "package ") {
		return []string{fmt.Sprintf("%s:%d: go snippet has no package clause; make it a complete file or use a ```text fence", b.file, b.line)}
	}
	formatted, err := format.Source([]byte(b.code))
	if err != nil {
		return []string{fmt.Sprintf("%s:%d: go snippet does not parse: %v", b.file, b.line, err)}
	}
	if string(formatted) != b.code {
		problems = append(problems, fmt.Sprintf("%s:%d: go snippet is not gofmt-formatted", b.file, b.line))
	}
	return problems
}

// compileGoBlocks writes each snippet into its own throwaway package
// directory under root (inside the module, so imports of the repo resolve)
// and builds it. The directory name starts with "_" so the go tool's ./...
// patterns and the build cache ignore any leftovers.
func compileGoBlocks(root string, blocks []goBlock) []string {
	if len(blocks) == 0 {
		return nil
	}
	tmp, err := os.MkdirTemp(root, "_docsnippets")
	if err != nil {
		return []string{fmt.Sprintf("docscheck: %v", err)}
	}
	defer os.RemoveAll(tmp)
	var problems []string
	for i, b := range blocks {
		dir := filepath.Join(tmp, fmt.Sprintf("snippet%02d", i))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			problems = append(problems, err.Error())
			continue
		}
		if err := os.WriteFile(filepath.Join(dir, "snippet.go"), []byte(b.code), 0o644); err != nil {
			problems = append(problems, err.Error())
			continue
		}
		cmd := exec.Command("go", "build", "-o", os.DevNull, "./"+filepath.ToSlash(mustRel(root, dir)))
		cmd.Dir = root
		if out, err := cmd.CombinedOutput(); err != nil {
			problems = append(problems, fmt.Sprintf("%s:%d: go snippet does not compile:\n%s", b.file, b.line, out))
		}
	}
	return problems
}

// flagTables returns the flags each "## cmd/X flags" section of content
// documents, keyed by X, in table order.
func flagTables(content string) map[string][]string {
	tables := map[string][]string{}
	cmd := ""
	for _, line := range strings.Split(content, "\n") {
		if m := flagHeadingRe.FindStringSubmatch(line); m != nil {
			cmd = m[1]
			tables[cmd] = nil
			continue
		}
		if strings.HasPrefix(line, "## ") {
			cmd = ""
			continue
		}
		if m := flagRowRe.FindStringSubmatch(line); m != nil && cmd != "" {
			tables[cmd] = append(tables[cmd], m[1])
		}
	}
	return tables
}

// usageFlags returns the flags a command's -h output lists.
func usageFlags(out string) []string {
	var flags []string
	for _, line := range strings.Split(out, "\n") {
		if m := usageFlagRe.FindStringSubmatch(line); m != nil {
			flags = append(flags, m[1])
		}
	}
	return flags
}

// compareFlags reports each flag cmd/cmd prints that its table does not
// document, and each documented flag it does not print.
func compareFlags(cmd string, documented, printed []string) []string {
	var problems []string
	for _, f := range printed {
		if !slices.Contains(documented, f) {
			problems = append(problems, fmt.Sprintf("docs/API.md: cmd/%s prints flag -%s, which its flag table does not list", cmd, f))
		}
	}
	for _, f := range documented {
		if !slices.Contains(printed, f) {
			problems = append(problems, fmt.Sprintf("docs/API.md: the cmd/%s flag table lists -%s, which cmd/%s -h does not print", cmd, f, cmd))
		}
	}
	return problems
}

// checkFlagTables builds every command docs/API.md has a flag table for
// into a throwaway directory, runs it with -h and compares the flags it
// prints with the table.
func checkFlagTables(root string) []string {
	raw, err := os.ReadFile(filepath.Join(root, "docs", "API.md"))
	if err != nil {
		return []string{err.Error()}
	}
	tables := flagTables(string(raw))
	if len(tables) == 0 {
		return nil
	}
	bin, err := os.MkdirTemp("", "docscheck-flags")
	if err != nil {
		return []string{fmt.Sprintf("docscheck: %v", err)}
	}
	defer os.RemoveAll(bin)
	cmds := make([]string, 0, len(tables))
	for cmd := range tables {
		cmds = append(cmds, cmd)
	}
	sort.Strings(cmds)
	var problems []string
	for _, cmd := range cmds {
		exe := filepath.Join(bin, cmd)
		build := exec.Command("go", "build", "-o", exe, "./cmd/"+cmd)
		build.Dir = root
		if out, err := build.CombinedOutput(); err != nil {
			problems = append(problems, fmt.Sprintf("docs/API.md: flag table for cmd/%s, which does not build:\n%s", cmd, out))
			continue
		}
		// The exit status is not checked: the usage text is what counts.
		out, _ := exec.Command(exe, "-h").CombinedOutput()
		printed := usageFlags(string(out))
		if len(printed) == 0 {
			problems = append(problems, fmt.Sprintf("docs/API.md: cmd/%s -h printed no flags:\n%s", cmd, out))
			continue
		}
		problems = append(problems, compareFlags(cmd, tables[cmd], printed)...)
	}
	return problems
}

func mustRel(base, target string) string {
	rel, err := filepath.Rel(base, target)
	if err != nil {
		panic(err)
	}
	return rel
}

func run(root string) []string {
	files, err := mdFiles(root)
	if err != nil {
		return []string{err.Error()}
	}
	if len(files) == 0 {
		return []string{fmt.Sprintf("docscheck: no markdown files found under %s", root)}
	}
	var problems []string
	var blocks []goBlock
	for _, file := range files {
		raw, err := os.ReadFile(filepath.Join(root, file))
		if err != nil {
			problems = append(problems, err.Error())
			continue
		}
		content := string(raw)
		problems = append(problems, checkLinks(root, file, content)...)
		// Compile-check snippets in docs/ only; README uses elided
		// fragments (see the package comment).
		if strings.HasPrefix(file, "docs"+string(filepath.Separator)) || strings.HasPrefix(file, "docs/") {
			for _, b := range extractGoBlocks(file, content) {
				problems = append(problems, checkGoBlock(b)...)
				blocks = append(blocks, b)
			}
		}
	}
	problems = append(problems, compileGoBlocks(root, blocks)...)
	problems = append(problems, checkFlagTables(root)...)
	sources, err := goFiles(root)
	if err != nil {
		return append(problems, err.Error())
	}
	for _, file := range sources {
		raw, err := os.ReadFile(filepath.Join(root, file))
		if err != nil {
			problems = append(problems, err.Error())
			continue
		}
		problems = append(problems, checkDocRefs(root, file, string(raw))...)
	}
	return problems
}

func main() {
	root := flag.String("root", ".", "repository root")
	flag.Parse()
	problems := run(*root)
	if len(problems) > 0 {
		for _, p := range problems {
			fmt.Fprintln(os.Stderr, p)
		}
		fmt.Fprintf(os.Stderr, "docscheck: %d problem(s)\n", len(problems))
		os.Exit(1)
	}
	fmt.Println("docscheck: docs links resolve, snippets compile, flag tables match the commands, Go sources name only documents that exist")
}
