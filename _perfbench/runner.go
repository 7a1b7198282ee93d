package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"time"
)

// runResult is one finished child process.
type runResult struct {
	wall           float64 // seconds from exec to exit
	rssKB          int64   // peak resident set, from wait4's rusage
	stdout, stderr string
	dir            string // the invocation's artifact directory
	err            error  // exec failure, timeout or non-zero exit
}

// runChild runs bin with args to completion (or until ctx ends, when it is
// killed and still waited for), timing it and taking its peak RSS.
func runChild(ctx context.Context, bin string, args []string, dir string) runResult {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return runResult{dir: dir, err: err}
	}
	cmd := exec.CommandContext(ctx, bin, args...)
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	t0 := time.Now()
	err := cmd.Run()
	r := runResult{wall: time.Since(t0).Seconds(), stdout: out.String(), stderr: errb.String(), dir: dir}
	if ps := cmd.ProcessState; ps != nil {
		if ru, ok := ps.SysUsage().(*syscall.Rusage); ok {
			r.rssKB = ru.Maxrss // kilobytes on Linux
		}
	}
	if err != nil {
		msg := strings.TrimSpace(r.stderr)
		if i := strings.LastIndexByte(msg, '\n'); i >= 0 {
			msg = msg[i+1:]
		}
		r.err = fmt.Errorf("%s %s: %v: %s", filepath.Base(bin), strings.Join(args, " "), err, msg)
	}
	return r
}

// invoker runs one workload's invocations and tallies their operations.
type invoker struct {
	w       *workload
	ctx     context.Context
	bin     string
	outDir  string
	seed    int64
	chk     checker
	ops     opResult
	errShow int // check failures printed so far
}

// run executes one invocation of size n (with extra flags appended before
// the experiment arguments) and checks it.
func (iv *invoker) run(n int, extra ...string) (runResult, opResult) {
	dir := filepath.Join(iv.outDir, fmt.Sprintf("n%d", n))
	args := append(append([]string(nil), extra...), iv.w.args(n, iv.seed, dir)...)
	r := runChild(iv.ctx, iv.bin, args, dir)
	o := iv.w.check(&iv.chk, n, r)
	iv.ops.attempted += o.attempted
	iv.ops.failed += o.failed
	iv.ops.errs = append(iv.ops.errs, o.errs...)
	for _, e := range o.errs {
		if iv.errShow < 5 {
			fmt.Fprintf(os.Stderr, "check failed: %s\n", e)
		}
		iv.errShow++
	}
	return r, o
}
