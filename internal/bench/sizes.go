package bench

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
)

// Table 1 and Table 7 report sizes. The paper's absolute numbers describe
// its Modula-3/Alpha implementation; the reproducible claim is structural —
// the extensibility machinery is a small fraction of the kernel, and
// extensions cost code commensurate with their functionality — so these
// tables report the analogous inventory of *this* implementation, with the
// paper's source-line numbers alongside for scale.

// repoRoot locates the module root (directory containing go.mod).
func repoRoot() (string, error) {
	_, file, _, ok := runtime.Caller(0)
	if !ok {
		return "", fmt.Errorf("bench: cannot locate source")
	}
	dir := filepath.Dir(file)
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("bench: go.mod not found above %s", file)
		}
		dir = parent
	}
}

// pathCounts memoizes countPath: the sources do not change while a process
// runs, so Tables 1 and 7 read each file once however often they are built.
var pathCounts sync.Map // path -> [2]int64{lines, bytes}

// countStats tallies non-comment source lines and bytes of .go files
// (tests excluded) under the given paths (files or directories).
func countStats(root string, paths ...string) (lines int, bytes int64, err error) {
	for _, p := range paths {
		full := filepath.Join(root, p)
		c, ok := pathCounts.Load(full)
		if !ok {
			l, b, err := countPath(full)
			if err != nil {
				return 0, 0, err
			}
			c, _ = pathCounts.LoadOrStore(full, [2]int64{int64(l), b})
		}
		lines += int(c.([2]int64)[0])
		bytes += c.([2]int64)[1]
	}
	return lines, bytes, nil
}

// countPath counts one file, or every non-test .go file under a directory.
func countPath(full string) (lines int, bytes int64, err error) {
	info, err := os.Stat(full)
	if err != nil {
		return 0, 0, err
	}
	var files []string
	if info.IsDir() {
		err = filepath.Walk(full, func(path string, fi os.FileInfo, err error) error {
			if err != nil {
				return err
			}
			if !fi.IsDir() && strings.HasSuffix(path, ".go") && !strings.HasSuffix(path, "_test.go") {
				files = append(files, path)
			}
			return nil
		})
		if err != nil {
			return 0, 0, err
		}
	} else {
		files = []string{full}
	}
	for _, f := range files {
		l, b, err := countFile(f)
		if err != nil {
			return 0, 0, err
		}
		lines += l
		bytes += b
	}
	return lines, bytes, nil
}

// countFile counts non-blank, non-comment lines (like the paper's "lines"
// column, which excludes comments).
func countFile(path string) (int, int64, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, 0, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return 0, 0, err
	}
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20) // starts small; a line may still reach 1 MiB
	lines := 0
	inBlock := false
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if inBlock {
			if idx := strings.Index(line, "*/"); idx >= 0 {
				line = strings.TrimSpace(line[idx+2:])
				inBlock = false
			} else {
				continue
			}
		}
		if line == "" || strings.HasPrefix(line, "//") {
			continue
		}
		if strings.HasPrefix(line, "/*") {
			if !strings.Contains(line, "*/") {
				inBlock = true
			}
			continue
		}
		lines++
	}
	return lines, fi.Size(), sc.Err()
}

// NonTestLines reports the repository's non-comment Go source lines, tests
// and the benchmark/ harness excluded — the figure CI ratchets downward.
func NonTestLines() (int, error) {
	root, err := repoRoot()
	if err != nil {
		return 0, err
	}
	all, _, err := countStats(root, ".")
	if err != nil {
		return 0, err
	}
	harness, _, err := countStats(root, "benchmark")
	return all - harness, err
}

// sizeEntry is one row of a size table: a component, the paper's source
// lines for it, and the paths that implement it here (nil: no analogue).
type sizeEntry struct {
	name  string
	paper float64
	paths []string
}

// sizeRows measures each entry, returning the rows and the measured total.
func sizeRows(entries []sizeEntry) (rows []Row, total float64, err error) {
	root, err := repoRoot()
	if err != nil {
		return nil, 0, err
	}
	for _, e := range entries {
		measured := []float64{NA, NA}
		if e.paths != nil {
			lines, bytes, err := countStats(root, e.paths...)
			if err != nil {
				return nil, 0, err
			}
			measured = []float64{float64(lines), float64(bytes)}
			total += float64(lines)
		}
		rows = append(rows, Row{Label: e.name, Paper: []float64{e.paper, NA}, Measured: measured})
	}
	return rows, total, nil
}

// RunTable1 reproduces Table 1: size of system components. Components map
// as: sys = extensibility machinery (safe objects, domains, dispatcher);
// core = VM, scheduling, networking, file system; rt = runtime substrate
// (virtual clock, DES, heap model); sal = hardware layer.
// The paper's lib (generic Modula-3 data structures) corresponds to the Go
// standard library and is reported as n/a.
func RunTable1() (*Table, error) {
	rows, total, err := sizeRows([]sizeEntry{
		{"sys (extensibility machinery)", 1646, []string{"internal/safe", "internal/domain", "internal/dispatch", "spin.go"}},
		{"core (vm, sched, net, fs, dbg)", 10866, []string{"internal/vm", "internal/strand", "internal/netstack", "internal/fs", "internal/unixsrv", "internal/netdbg", "internal/metrics"}},
		{"rt (runtime)", 14216, []string{"internal/sim"}},
		{"lib (generic data structures)", 1234, nil}, // Go stdlib
		{"sal (hardware layer)", 37690, []string{"internal/sal"}},
	})
	if err != nil {
		return nil, err
	}
	rows = append(rows, Row{Label: "total kernel", Paper: []float64{65652, NA}, Measured: []float64{total, NA}})
	return &Table{
		ID:      "table1",
		Title:   "System component sizes (non-comment source lines; bytes)",
		Columns: []string{"lines", "source bytes"},
		Unit:    "lines / bytes",
		Rows:    rows,
		Notes: []string{
			"paper column: Modula-3/C source lines from the 1995 system; measured: this Go implementation (tests excluded)",
			"lib maps to the Go standard library (n/a); the paper's sal was diffed DEC OSF/1 sources, ours is a simulator",
		},
	}, nil
}

// RunTable7 reproduces Table 7: sizes of the extensions described in the
// paper, mapped to this implementation's extension files.
func RunTable7() (*Table, error) {
	rows, _, err := sizeRows([]sizeEntry{
		{"IPC / active messages", 127, []string{"internal/netstack/ext_am.go"}},
		{"CThreads + OSF/1 threads", 524, []string{"internal/strand/cthreads.go"}},
		{"VM workload (spaces, tasks, COW)", 263, []string{"internal/vm/ext.go"}},
		{"IP", 744, []string{"internal/netstack/stack.go"}},
		{"UDP", 1046, []string{"internal/netstack/udp.go"}},
		{"TCP", 5077, []string{"internal/netstack/tcp.go", "internal/netstack/tcp_rack.go"}},
		{"HTTP", 392, []string{"internal/netstack/ext_http.go"}},
		{"TCP/UDP Forward", 325, []string{"internal/netstack/ext_forward.go"}},
		{"Video client+server", 399, []string{"internal/netstack/ext_video.go"}},
	})
	if err != nil {
		return nil, err
	}
	return &Table{
		ID:      "table7",
		Title:   "Extension sizes (non-comment source lines; bytes)",
		Columns: []string{"lines", "source bytes"},
		Unit:    "lines / bytes",
		Rows:    rows,
		Notes: []string{
			"paper lines are the Modula-3 originals; rows with merged components sum the paper's entries",
			"the claim preserved: extensions cost code commensurate with their functionality",
		},
	}, nil
}
