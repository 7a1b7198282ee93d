package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strconv"

	"quest/internal/bwprofile"
	"quest/internal/heatmap"
	"quest/internal/ledger"
)

// workers is the Monte-Carlo pool size passed to questbench: the benchmark
// host has two CPUs, and one child runs at a time.
const workers = 2

// workload is one named set of inputs: a program invocation at a fixed
// work size, its minimal-work (set-up) form, and the checks on its output.
type workload struct {
	name, why string
	// unit names what one unit of work is ("trials" or "replays").
	unit string
	bin  string
	// work is the trial or replay count of a measured invocation; setup
	// invocations run with 1.
	work int
	args func(n int, seed int64, dir string) []string
	// check validates one finished invocation of size n and returns its
	// operations and work done.
	check func(c *checker, n int, r runResult) opResult
	// harness drives one cell through the layers' public calls until
	// deadline (see harness.go).
	harness func(h *harness, seed int64)
}

// opResult is what one invocation contributed: operations attempted and
// failed (one per table row, or one per questsim run), the work it
// reports (sum of the trials column, or replays) and simulated µops.
type opResult struct {
	attempted, failed int
	work              float64
	simUops           float64
	errs              []string
}

func (o *opResult) fail(format string, args ...any) {
	o.errs = append(o.errs, fmt.Sprintf(format, args...))
}

var workloads = []*workload{
	{
		name: "threshold-sweep",
		why: "the validation table users regenerate most: scalar tableau trials over 3 rates x d in {3,5}, " +
			"no machine or observers, so it isolates clifford, noise and the window decoder",
		unit: "trials",
		bin:  "questbench",
		work: 300,
		args: func(n int, _ int64, _ string) []string {
			return []string{"-workers", strconv.Itoa(workers), "-trials", strconv.Itoa(n), "threshold"}
		},
		check:   checkThreshold,
		harness: harnessThreshold,
	},
	{
		name: "memory-sweep",
		why: "the same physics through the full machine (pooling, master dispatch, MCE microcode, LUT decode " +
			"with escalation) with ledger, bandwidth and heatmap observers on",
		unit: "trials",
		bin:  "questbench",
		work: 1500,
		args: func(n int, _ int64, dir string) []string {
			return []string{"-workers", strconv.Itoa(workers), "-trials", strconv.Itoa(n),
				"-ledger", filepath.Join(dir, "ledger.jsonl"), "-bw", filepath.Join(dir, "bw.jsonl"),
				"-heatmap", filepath.Join(dir, "heatmap.json"), "memory"}
		},
		check:   checkMemory,
		harness: harnessMemory,
	},
	{
		name: "machine-distill",
		why: "the paper's headline mechanism, cached distillation replay (50 replays, 4350 cycles): " +
			"single-threaded MCE replay and tableau, no noise, decoder or Monte-Carlo engine",
		unit: "replays",
		bin:  "questsim",
		work: distillReplays,
		args: func(n int, seed int64, _ string) []string {
			return []string{"-program", "distill", "-replays", strconv.Itoa(n), "-seed", strconv.FormatInt(seed, 10)}
		},
		check:   checkDistill,
		harness: harnessDistill,
	},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// checker carries state across the invocations of one benchmark run: the
// artifact digests every repetition of the same size must reproduce.
type checker struct {
	artifacts map[int][3][32]byte
}

// refRow is a stored reference row: the same cell at a large trial count
// (threshold 20000, memory 40000 trials per cell). A measured row's 95%
// Wilson interval must overlap it. The check is statistical on purpose: a
// change of fault-sampling stream moves every row but not the physics.
type refRow struct {
	Rate   float64
	Param  int
	Lo, Hi float64
}

var thresholdRef = []refRow{
	{2e-3, 3, 0.0361, 0.0415},
	{2e-3, 5, 0.0366, 0.0420},
	{1e-3, 3, 0.0163, 0.0200},
	{1e-3, 5, 0.0135, 0.0169},
	{5e-4, 3, 0.0072, 0.0098},
	{5e-4, 5, 0.0051, 0.0073},
}

var memoryRef = []refRow{
	{0, 8, 0, 0},
	{1e-4, 8, 0.0088, 0.0109},
	{5e-4, 8, 0.0439, 0.0481},
}

// checkRows checks a parsed table against the expected cells: every row
// present with the requested trial count, its rate inside its own interval
// (to the printed precision), and its interval overlapping the reference.
// Each expected row is one operation; a missing row fails.
func checkRows(o *opResult, rows []tableRow, ref []refRow, n int, precision float64) {
	o.attempted += len(ref)
	for i, want := range ref {
		if i >= len(rows) {
			o.failed++
			o.fail("row %d missing", i)
			continue
		}
		r := rows[i]
		o.work += float64(r.Trials)
		switch {
		case r.Rate != want.Rate || r.Param != want.Param:
			o.fail("row %d is cell (%g, %d), want (%g, %d)", i, r.Rate, r.Param, want.Rate, want.Param)
		case r.Trials != n:
			o.fail("row %d ran %d trials, want %d", i, r.Trials, n)
		case r.Fail < r.Lo-precision || r.Fail > r.Hi+precision:
			o.fail("row %d rate %g outside its interval [%g, %g]", i, r.Fail, r.Lo, r.Hi)
		case want.Hi > 0 && (r.Lo > want.Hi+precision || r.Hi < want.Lo-precision):
			o.fail("row %d interval [%g, %g] misses the reference [%g, %g]", i, r.Lo, r.Hi, want.Lo, want.Hi)
		default:
			continue
		}
		o.failed++
	}
	if len(rows) > len(ref) {
		o.fail("%d unexpected extra rows", len(rows)-len(ref))
		o.failed = o.attempted
	}
}

// exitFailed counts an invocation that did not exit cleanly: every
// operation it should have produced failed.
func exitFailed(o *opResult, ops int, r runResult) bool {
	if r.err == nil {
		return false
	}
	o.attempted, o.failed = ops, ops
	o.fail("%s", r.err)
	return true
}

func checkThreshold(_ *checker, n int, r runResult) opResult {
	var o opResult
	if exitFailed(&o, len(thresholdRef), r) {
		return o
	}
	rows, err := parseTable(r.stdout, "threshold")
	if err != nil {
		o.fail("%v", err)
	}
	checkRows(&o, rows, thresholdRef, n, 0.00005)
	return o
}

func checkMemory(c *checker, n int, r runResult) opResult {
	var o opResult
	if exitFailed(&o, len(memoryRef), r) {
		return o
	}
	rows, err := parseTable(r.stdout, "memory")
	if err != nil {
		o.fail("%v", err)
	}
	checkRows(&o, rows, memoryRef, n, 0.0005)
	if err := c.checkMemoryArtifacts(n, r.dir); err != nil {
		// The artifacts back every row; a bad artifact fails them all.
		o.fail("%v", err)
		o.failed = o.attempted
	}
	return o
}

// checkMemoryArtifacts validates the ledger and quest-bw/1 profile with the
// repository's own validators, parses the heatmap, pins the p=0 cell to
// exactly zero failures, and requires all three files to be byte-identical
// to the first repetition of the same size.
func (c *checker) checkMemoryArtifacts(n int, dir string) error {
	var data [3][]byte
	for i, name := range []string{"ledger.jsonl", "bw.jsonl", "heatmap.json"} {
		b, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			return err
		}
		data[i] = b
	}
	if _, err := ledger.Validate(data[0]); err != nil {
		return fmt.Errorf("ledger: %w", err)
	}
	if _, err := bwprofile.Validate(data[1]); err != nil {
		return fmt.Errorf("quest-bw/1: %w", err)
	}
	if _, err := heatmap.ReadFile(data[2]); err != nil {
		return fmt.Errorf("heatmap: %w", err)
	}
	if err := checkNoiselessCell(data[0], n); err != nil {
		return err
	}
	var sums [3][32]byte
	for i, b := range data {
		sums[i] = sha256.Sum256(b)
	}
	if c.artifacts == nil {
		c.artifacts = map[int][3][32]byte{}
	}
	if first, ok := c.artifacts[n]; !ok {
		c.artifacts[n] = sums
	} else if first != sums {
		return fmt.Errorf("artifacts differ from the first repetition with %d trials", n)
	}
	return nil
}

// checkNoiselessCell requires the ledger's p=0 cell to record exactly zero
// failures over n trials; the printed table rounds too coarsely to tell.
func checkNoiselessCell(ledgerData []byte, n int) error {
	prefix := []byte(`{"record":"cell","cell":"memory p=0 rounds=8",`)
	for _, line := range bytes.Split(ledgerData, []byte("\n")) {
		if !bytes.HasPrefix(line, prefix) {
			continue
		}
		var cell ledger.Cell
		if err := json.Unmarshal(line, &cell); err != nil {
			return fmt.Errorf("ledger p=0 cell: %w", err)
		}
		if cell.Trials != n || cell.Failures != 0 {
			return fmt.Errorf("ledger p=0 cell: %d failures in %d trials, want 0 in %d", cell.Failures, cell.Trials, n)
		}
		return nil
	}
	return fmt.Errorf("ledger has no p=0 cell")
}

// distillReplays is the measured replay count: the paper's 4350-cycle
// machine demo.
const distillReplays = 50

// distillPins holds questsim's simulated statistics for the distill program
// on one tile of two d=3 patches, noiseless, per replay count. They depend
// on neither the seed nor the fault stream, so a change that only speeds up
// the simulator must reproduce them exactly.
var distillPins = map[int]simReport{
	1: {Cycles: 87, IdleCycles: 50, LogicalRetired: 106, BaselineBytes: 43065, QuESTBytes: 214,
		Savings: "201x", MicroOps: 68310, TileLogical: 106, CacheHits: 1, Loads: 1,
		MicrocodeBits: 273240, TileWallClockUs: "23.460"},
	distillReplays: {Cycles: 4350, IdleCycles: 50, LogicalRetired: 5300, BaselineBytes: 2153250, QuESTBytes: 214,
		Savings: "10062x", MicroOps: 2178495, TileLogical: 5300, CacheHits: 50, Loads: 1,
		MicrocodeBits: 8713980, TileWallClockUs: "748.170"},
}

func checkDistill(_ *checker, n int, r runResult) opResult {
	o := opResult{attempted: 1}
	if exitFailed(&o, 1, r) {
		return o
	}
	got, err := parseSimReport(r.stdout)
	want, ok := distillPins[n]
	switch {
	case err != nil:
		o.fail("%v", err)
	case !ok:
		o.fail("no pinned statistics for %d replays", n)
	case got != want:
		o.fail("simulated statistics %+v, want %+v", got, want)
	default:
		o.work, o.simUops = float64(n), float64(got.MicroOps)
		return o
	}
	o.failed = 1
	return o
}
