// Package report renders experiment output: fixed-width tables (the
// repository's equivalent of the paper's displayed claims), qualitative
// checks with pass/fail verdicts, and the experiment registry driving the
// CLI and the benchmark harness.
package report

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"rlnc/internal/local"
)

// Table is a titled grid of cells.
type Table struct {
	Title   string
	Columns []string
	Rows    [][]string
	Notes   []string
}

// AddRow appends a row, formatting each cell with fmt.Sprint. Numeric
// formatting is the caller's business (use fmt.Sprintf cells for
// precision control).
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		row[i] = fmt.Sprint(c)
	}
	t.Rows = append(t.Rows, row)
}

// AddNote appends a free-text footnote.
func (t *Table) AddNote(format string, args ...any) {
	t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
}

// Render writes the table as aligned text.
func (t *Table) Render(w io.Writer) {
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	if t.Title != "" {
		fmt.Fprintf(w, "%s\n", t.Title)
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			if i < len(widths) {
				parts[i] = pad(c, widths[i])
			} else {
				parts[i] = c
			}
		}
		fmt.Fprintf(w, "  %s\n", strings.Join(parts, "  "))
	}
	line(t.Columns)
	sep := make([]string, len(t.Columns))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	fmt.Fprintln(w)
}

func pad(s string, w int) string {
	if len(s) >= w {
		return s
	}
	return s + strings.Repeat(" ", w-len(s))
}

// Check is a programmatic verdict: the experiment's assertion that the
// measured shape matches the paper's claim.
type Check struct {
	Name   string
	OK     bool
	Detail string
}

// Result is everything one experiment produces.
type Result struct {
	Tables []*Table
	Checks []Check
}

// NewTable allocates a table and attaches it to the result.
func (r *Result) NewTable(title string, columns ...string) *Table {
	t := &Table{Title: title, Columns: columns}
	r.Tables = append(r.Tables, t)
	return t
}

// AddCheck records a verdict.
func (r *Result) AddCheck(name string, ok bool, format string, args ...any) {
	r.Checks = append(r.Checks, Check{Name: name, OK: ok, Detail: fmt.Sprintf(format, args...)})
}

// AllChecksPass reports whether every check succeeded.
func (r *Result) AllChecksPass() bool {
	for _, c := range r.Checks {
		if !c.OK {
			return false
		}
	}
	return true
}

// Render writes tables and checks.
func (r *Result) Render(w io.Writer) {
	for _, t := range r.Tables {
		t.Render(w)
	}
	for _, c := range r.Checks {
		status := "PASS"
		if !c.OK {
			status = "FAIL"
		}
		fmt.Fprintf(w, "  [%s] %s: %s\n", status, c.Name, c.Detail)
	}
}

// Header renders the experiment banner exactly as the CLI prints it
// before a run: the ID/title line and the paper reference, followed by a
// blank line. RunText composes it with the rendered result; the two are
// shared by `rlnc run` and the serve layer so their output bytes cannot
// diverge.
func Header(e Experiment) string {
	return fmt.Sprintf("=== %s — %s\n    reproduces %s\n\n", e.ID(), e.Title(), e.PaperRef())
}

// RunText renders one completed experiment run byte-identically to the
// CLI: Header, the result's tables and checks, and the trailing blank
// line `rlnc run` emits between experiments. The serve layer stores and
// serves exactly these bytes, which is what lets an HTTP-fetched table
// diff clean against the committed CLI goldens.
func RunText(e Experiment, res *Result) []byte {
	var b strings.Builder
	b.WriteString(Header(e))
	res.Render(&b)
	b.WriteByte('\n')
	return []byte(b.String())
}

// Config tunes an experiment run.
type Config struct {
	// Quick reduces trial counts and sweep sizes for CI and benchmarks.
	Quick bool
	// Seed feeds every tape space the experiment creates.
	Seed uint64
	// Shards, when > 1, runs message-algorithm trial loops on a sharded
	// engine of that many shards (clamped per graph to its node count).
	// Every trial's outputs are byte-identical to the unsharded run;
	// aggregated tables are additionally byte-identical whenever the
	// Monte-Carlo worker chunking coincides (shard groups shrink the
	// pool, which can regroup float accumulation — pin GOMAXPROCS to
	// one, as the golden tests do, for exact table equality). The knob
	// exists to exercise the multi-machine execution path end to end.
	Shards int
	// Fault, when non-nil and enabled, arms the fault plan on every trial
	// executor the experiment builds — batched and sharded alike — so the
	// whole sweep runs under the same seeded drop/delay/crash schedule
	// (`rlnc run -drop/-delay/-crash ...`). Faulty trials stay
	// deterministic: the plan's fault tape is keyed by (round, global
	// slot, lane), so per-trial outputs are byte-identical across batch
	// widths and shard counts, exactly like the fault-free path. A nil or
	// zero plan reproduces fault-free runs bit for bit.
	Fault *local.FaultPlan
	// NewSharded, when set, builds the sharded executors the trial loops
	// use instead of the default in-process one — the CLI injects the
	// loopback-TCP transport and the shard-worker process pool through
	// it (`rlnc run -transport ...`, spawned loopback workers or a
	// `-control` multi-host fleet). A provider may refuse (a worker pool
	// serves one executor at a time); the trial loop then falls back to
	// a plain batch, which the sharding contract keeps byte-identical.
	// Providers are also the recovery path: when a chunk fails because a
	// worker process died, the Monte-Carlo scheduler closes the chunk's
	// executor and calls the provider again, which builds from the
	// pool's surviving workers (or refuses, degrading to the local
	// batch) — so trial sweeps ride out mid-run worker deaths with
	// unchanged output bytes. Executors are Closed when their worker
	// retires.
	NewSharded func(plan *local.Plan, width, shards int) (*local.Sharded, error)
	// Progress, when set, observes every Monte-Carlo sweep the experiment
	// runs: each sweep reports (0, total) once before its first trial
	// chunk executes — total being that sweep's chunk count — and the
	// cumulative completed-chunk count after each chunk (mc.Executor's
	// Progress contract). An experiment typically runs many sweeps (one
	// per table cell), so callers count the (0, total) events to number
	// phases. Per-chunk calls arrive concurrently from trial workers; the
	// callback must be safe for concurrent use and must not panic. The
	// serve layer's SSE progress stream is this hook.
	Progress func(done, total int)
}

// Experiment is one entry of the experiment registry (indexed in
// README.md).
type Experiment interface {
	// ID is the index key, e.g. "E1".
	ID() string
	// Title is a one-line description.
	Title() string
	// PaperRef cites the statement reproduced, e.g. "§2.3.1 example".
	PaperRef() string
	// Run executes the experiment.
	Run(cfg Config) (*Result, error)
}

// registry of experiments, keyed by lower-cased ID.
var registry = map[string]Experiment{}

// Register adds an experiment; duplicate IDs panic at init time.
func Register(e Experiment) {
	key := strings.ToLower(e.ID())
	if _, dup := registry[key]; dup {
		panic(fmt.Sprintf("report: duplicate experiment %s", e.ID()))
	}
	registry[key] = e
}

// ByID looks an experiment up (case-insensitive).
func ByID(id string) (Experiment, bool) {
	e, ok := registry[strings.ToLower(id)]
	return e, ok
}

// All returns the experiments sorted by numeric ID.
func All() []Experiment {
	out := make([]Experiment, 0, len(registry))
	for _, e := range registry {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool {
		return idOrder(out[i].ID()) < idOrder(out[j].ID())
	})
	return out
}

func idOrder(id string) int {
	n := 0
	for _, r := range id {
		if r >= '0' && r <= '9' {
			n = n*10 + int(r-'0')
		}
	}
	return n
}
