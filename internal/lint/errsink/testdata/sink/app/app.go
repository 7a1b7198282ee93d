package app

import (
	"fix/internal/jsonl"
	"fix/internal/ledger"
	"fix/internal/other"
)

func use(w *ledger.Writer) error {
	w.WriteCell(1)    // want "error result of ledger.WriteCell discarded"
	defer w.Flush()   // want "deferred error result of ledger.Flush discarded"
	_, _ = w.Flush()  // want "error result of ledger.Flush discarded"
	n, _ := w.Flush() // want "error result of ledger.Flush discarded"
	_ = n

	if err := w.WriteCell(2); err != nil { // ok: checked
		return err
	}
	n2, err := w.Flush() // ok: the error result is captured
	_ = n2
	if err != nil {
		return err
	}
	jsonl.Read(nil)            // want "error result of jsonl.Read discarded"
	torn, _ := jsonl.Read(nil) // want "error result of jsonl.Read discarded"
	_ = torn
	w.Count()      // ok: no error result
	other.Emit(3)  // ok: not a sink package
	func() error { // ok: dynamic call, no static callee
		return nil
	}()

	//quest:allow(errsink) fixture: proves the suppression engages
	w.WriteCell(3) // suppressed "error result of ledger.WriteCell discarded"
	return nil
}

func open() *ledger.Writer {
	w, _ := ledger.Open("x") // want "error result of ledger.Open discarded"
	return w
}

var _ = use
