// Package jsonl mirrors the shared JSONL reader: every artifact stream's
// parse starts here, so its error results — corrupt input — are protected
// too.
package jsonl

func Read(data []byte) (torn bool, err error) { return false, nil }
