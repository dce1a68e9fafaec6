// Command bcecheck enforces the bounds-check-elimination contract on the
// kernel hot loops (`make bce-check`). It compiles every package that holds
// a file named by the checked-in clean list (bce_clean.txt at the repo
// root) with `-gcflags=-d=ssa/check_bce`, which makes the compiler print
// every bounds check that survives the prove pass, maps each finding to its
// enclosing function with go/parser, and fails if any finding lands in a
// function the list names. The package set comes from the list itself, so
// an entry can never pass because its package was not compiled.
//
// The clean list is a contract, not a snapshot: the listed functions are the
// per-MAC / per-butterfly inner loops that were hand-restructured so the
// compiler proves every slice access in range (see ARCHITECTURE.md "Kernel
// tiers" for the idioms). A refactor that reintroduces a check into one of
// them fails CI with the exact file:line the compiler reported, instead of
// silently costing a branch per inner-loop iteration. Functions whose checks
// are data-dependent and irreducible (im2col replay, requantTail, the
// bit-reversal permutation) stay off the list on purpose.
//
// The tool also fails if a listed function no longer exists in its file, so
// renames cannot quietly strand the contract.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// finding is one surviving bounds check as reported by the compiler.
type finding struct {
	file string // path as printed, e.g. internal/tflm/gemm.go
	line int
	kind string // IsInBounds | IsSliceInBounds
}

var findingRE = regexp.MustCompile(`^(.+\.go):(\d+):\d+: Found (Is(?:Slice)?InBounds)$`)

func main() {
	cleanPath := flag.String("clean", "bce_clean.txt", "clean-list file: '<file>:<func>' lines that must compile check-free")
	flag.Parse()

	entries, err := readCleanList(*cleanPath)
	if err != nil {
		fatal(err)
	}
	pkgs := packagesOf(entries)
	findings, err := compileFindings(pkgs)
	if err != nil {
		fatal(err)
	}

	// Parse each file named by the clean list once and extract the line
	// ranges of its top-level functions.
	spansByFile := map[string]map[string][2]int{}
	bad := 0
	for _, e := range entries {
		spans, ok := spansByFile[e.file]
		if !ok {
			spans, err = funcSpans(e.file)
			if err != nil {
				fatal(err)
			}
			spansByFile[e.file] = spans
		}
		span, ok := spans[e.fn]
		if !ok {
			fmt.Fprintf(os.Stderr, "bcecheck: stale clean list: no function %q in %s\n", e.fn, e.file)
			bad++
			continue
		}
		for _, f := range findings {
			if f.file == e.file && f.line >= span[0] && f.line <= span[1] {
				fmt.Fprintf(os.Stderr, "bcecheck: %s:%d: %s in protected function %s\n", f.file, f.line, f.kind, e.fn)
				bad++
			}
		}
	}
	if bad > 0 {
		fmt.Fprintf(os.Stderr, "bcecheck: FAIL: %d violation(s); restore the BCE idiom or consciously amend %s\n", bad, *cleanPath)
		os.Exit(1)
	}
	fmt.Printf("bcecheck: OK: %d protected functions in %d packages check-free (%d surviving checks elsewhere are allowed)\n",
		len(entries), len(pkgs), len(findings))
}

type cleanEntry struct {
	file string
	fn   string
}

// readCleanList parses the clean-list file: one '<file>:<func>' per line,
// '#' comments and blank lines ignored.
func readCleanList(path string) ([]cleanEntry, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var entries []cleanEntry
	sc := bufio.NewScanner(f)
	ln := 0
	for sc.Scan() {
		ln++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		file, fn, ok := strings.Cut(line, ":")
		if !ok || file == "" || fn == "" {
			return nil, fmt.Errorf("bcecheck: %s:%d: want '<file>:<func>', got %q", path, ln, line)
		}
		entries = append(entries, cleanEntry{file: file, fn: fn})
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(entries) == 0 {
		return nil, fmt.Errorf("bcecheck: clean list %s is empty", path)
	}
	return entries, nil
}

// packagesOf returns the package directories ("./internal/dsp") of the
// clean-list files, sorted and deduplicated.
func packagesOf(entries []cleanEntry) []string {
	seen := map[string]bool{}
	var pkgs []string
	for _, e := range entries {
		dir := "./" + filepath.ToSlash(filepath.Dir(e.file))
		if !seen[dir] {
			seen[dir] = true
			pkgs = append(pkgs, dir)
		}
	}
	sort.Strings(pkgs)
	return pkgs
}

// compileFindings builds pkgs with the check_bce debug flag and parses the
// compiler's findings. The build cache replays compiler diagnostics, so
// repeat runs are cheap. A build that fails for any other reason (the output
// contains more than findings) is surfaced verbatim.
func compileFindings(pkgs []string) ([]finding, error) {
	args := append([]string{"build", "-gcflags=-d=ssa/check_bce"}, pkgs...)
	out, err := exec.Command("go", args...).CombinedOutput()
	var findings []finding
	for _, line := range strings.Split(string(out), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		m := findingRE.FindStringSubmatch(line)
		if m == nil {
			return nil, fmt.Errorf("bcecheck: go build failed:\n%s", out)
		}
		n, _ := strconv.Atoi(m[2])
		findings = append(findings, finding{file: m[1], line: n, kind: m[3]})
	}
	if err != nil {
		return nil, fmt.Errorf("bcecheck: go build failed:\n%s", out)
	}
	sort.Slice(findings, func(i, j int) bool {
		if findings[i].file != findings[j].file {
			return findings[i].file < findings[j].file
		}
		return findings[i].line < findings[j].line
	})
	return findings, nil
}

// funcSpans returns the [start, end] line range of every top-level function
// or method declared in the file, keyed by name.
func funcSpans(path string) (map[string][2]int, error) {
	fset := token.NewFileSet()
	af, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
	if err != nil {
		return nil, fmt.Errorf("bcecheck: parsing %s: %w", path, err)
	}
	spans := map[string][2]int{}
	for _, d := range af.Decls {
		fd, ok := d.(*ast.FuncDecl)
		if !ok || fd.Body == nil {
			continue
		}
		spans[fd.Name.Name] = [2]int{
			fset.Position(fd.Pos()).Line,
			fset.Position(fd.Body.End()).Line,
		}
	}
	return spans, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}
