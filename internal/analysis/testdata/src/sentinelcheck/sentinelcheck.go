// Package sentinelfix exercises sentinelcheck: sentinel errors are
// matched with errors.Is/As, never ==, and error discards carry a
// recorded justification.
//
//swat:server
package sentinelfix

import (
	"errors"
	"io"
)

// ErrGone is the package's own sentinel, like wire.ErrPoolClosed.
var ErrGone = errors.New("gone")

// FrameError is a rich error type, like wire.RemoteError.
type FrameError struct{ Op string }

func (e *FrameError) Error() string { return "frame: " + e.Op }

func read() error { return io.EOF }

// EqLocal compares against the package sentinel with ==.
func EqLocal(err error) bool {
	return err == ErrGone // want `sentinel ErrGone compared with ==; wrapped errors break equality`
}

// NeqImported compares against an imported sentinel with !=.
func NeqImported(err error) bool {
	return err != io.EOF // want `sentinel io\.EOF compared with !=; wrapped errors break equality`
}

// SwitchCase is == in disguise.
func SwitchCase(err error) int {
	switch err {
	case nil:
		return 0
	case io.EOF: // want `sentinel io\.EOF matched by switch case`
		return 1
	}
	return 2
}

// Assert reaches for the concrete type directly, missing wrapped
// chains.
func Assert(err error) bool {
	_, ok := err.(*FrameError) // want `type assertion on error err misses wrapped errors; use errors\.As`
	return ok
}

// Discard drops the error on the floor with no recorded reason.
func Discard() {
	_ = read() // want `error from read\(\.\.\.\) discarded with a blank assignment`
}

// --- the approved forms ---

// IsLocal and friends use the errors package.
func IsLocal(err error) bool   { return errors.Is(err, ErrGone) }
func IsWrapped(err error) bool { return errors.Is(err, io.EOF) }

func AsFrame(err error) (*FrameError, bool) {
	var fe *FrameError
	ok := errors.As(err, &fe)
	return fe, ok
}

// NilChecks are not sentinel matches.
func NilChecks(err error) bool { return err == nil || err != nil }

// LocalCompare of two non-sentinel error values is equality of
// identity, not sentinel matching.
func LocalCompare(a, b error) bool { return a == b }

// AllowedDiscard records why the error is unrecoverable here.
func AllowedDiscard() {
	//lint:allow sentinelcheck fixture: best-effort cleanup, nothing to do on failure
	_ = read()
}
