package main

import (
	"context"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestFailingInvocationIsCounted runs the real questsim with a replay count
// it rejects (it exits 1 with "non-positive replay count") and requires the
// invocation to count as an attempted, failed operation, not be dropped.
func TestFailingInvocationIsCounted(t *testing.T) {
	if testing.Short() {
		t.Skip("builds questsim")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "questsim")
	if out, err := exec.Command("go", "build", "-o", bin, "quest/cmd/questsim").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	iv := &invoker{w: workloadByName("machine-distill"), ctx: context.Background(), bin: bin, outDir: dir, seed: 1}
	r, o := iv.run(0)
	if r.err == nil || !strings.Contains(r.err.Error(), "non-positive replay count") {
		t.Errorf("run error %v, want questsim's non-positive replay count exit", r.err)
	}
	if o.attempted != 1 || o.failed != 1 || iv.ops.attempted != 1 || iv.ops.failed != 1 {
		t.Errorf("invocation %+v, totals %+v: want 1 attempted, 1 failed", o, iv.ops)
	}
	// A passing invocation afterwards adds to the totals without hiding
	// the failure.
	if _, o := iv.run(1); o.failed != 0 || iv.ops.attempted != 2 || iv.ops.failed != 1 {
		t.Errorf("after a good run: %+v, totals %+v", o, iv.ops)
	}
}
