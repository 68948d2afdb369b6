// Package fix is the golden fixture for the asyncwait checker, built on
// the real pnetcdf/internal/pfs AsyncOp. It covers the blessed discharge
// shapes (direct Wait, waiting helper, nil-guard, return transfer, closure
// pair, round loop, annotated exception) and the leak shapes (plain drop,
// error-path bail, loop-carried read-ahead, discarded result, non-local
// store, a Wait only on the panic path). The
// checker requires the engine, so the fixture is trivially clean under the
// intraprocedural runner.
package fix

import (
	"fixture/asyncwait/helper"

	"pnetcdf/internal/pfs"
)

// probe borrows the op without waiting it.
func probe(op *pfs.AsyncOp) {}

// leak: issued, never waited.
func leak(f *pfs.File) {
	op := f.WriteVecAsync(0, nil, nil)
	probe(op)
} // want `AsyncOp op reaches function end without Wait`

// waited is fine: the direct discharge.
func waited(f *pfs.File) error {
	op := f.ReadVAsync(0, nil, nil)
	_, err := op.Wait()
	return err
}

// errPathLeak waits on the happy path but bails before the Wait — the
// error-path leak the checker exists for.
func errPathLeak(f *pfs.File, err error) error {
	op := f.WriteVecAsync(0, nil, nil)
	if err != nil {
		return err // want `AsyncOp op reaches return without Wait`
	}
	_, werr := op.Wait()
	return werr
}

// guarded is fine: the owner's nil-guard shape.
func guarded(f *pfs.File, issue bool) {
	var op *pfs.AsyncOp
	if issue {
		op = f.ReadVecAsync(0, nil, nil)
	}
	if op != nil {
		op.Wait()
	}
}

// viaWaiter is fine: the cross-package helper's summary Waits its
// parameter.
func viaWaiter(f *pfs.File) error {
	op := f.WriteVecAsync(0, nil, nil)
	return helper.Join(op)
}

// transferred is fine: ownership returns to the caller.
func transferred(f *pfs.File) *pfs.AsyncOp {
	op := f.ReadVAsync(0, nil, nil)
	return op
}

// transferCaller inherits the transferred obligation (any callee whose
// signature returns *pfs.AsyncOp issues one) and leaks it.
func transferCaller(f *pfs.File) {
	op := transferred(f)
	probe(op)
} // want `AsyncOp op reaches function end without Wait`

// discarded: no handle at all.
func discarded(f *pfs.File) {
	f.WriteVecAsync(0, nil, nil) // want `AsyncOp result is discarded`
}

// pending is a struct custody root: a local whose field carries the op.
type pending struct {
	op *pfs.AsyncOp
}

// structField roots the obligation at the local struct.
func structField(f *pfs.File, bail bool) {
	var pend pending
	pend.op = f.WriteVecAsync(0, nil, nil)
	if bail {
		return // want `AsyncOp pend reaches return without Wait`
	}
	if pend.op != nil {
		pend.op.Wait()
	}
}

var parked pending

// storedOutside parks the op in a package-level variable; some other owner
// must wait it, so the checker demands an annotation.
func storedOutside(f *pfs.File) {
	parked.op = f.WriteVecAsync(0, nil, nil) // want `AsyncOp is stored outside the function's locals`
}

// closurePattern is fine: the depth-2 pipeline shape — frontend issues into
// the captured pend, finish waits it, and the drain call discharges the
// tail.
func closurePattern(f *pfs.File, rounds int) error {
	var pend pending
	finish := func() error {
		if pend.op != nil {
			_, err := pend.op.Wait()
			return err
		}
		return nil
	}
	frontend := func() {
		pend.op = f.ReadVecAsync(0, nil, nil)
	}
	frontend()
	for r := 0; r < rounds; r++ {
		if err := finish(); err != nil {
			return err
		}
		if r+1 < rounds {
			frontend()
		}
	}
	return finish()
}

// loopCarried: the in-loop early return leaks the previous iteration's op;
// the second loop pass (seeded with the loop-carried state) catches it.
func loopCarried(f *pfs.File, rounds int, stop func(int) bool) error {
	var op *pfs.AsyncOp
	for r := 0; r < rounds; r++ {
		if stop(r) {
			return nil // want `AsyncOp op reaches return without Wait`
		}
		if op != nil {
			op.Wait()
		}
		op = f.ReadVAsync(0, nil, nil)
	}
	if op != nil {
		op.Wait()
	}
	return nil
}

// roundLoop is fine: the two-phase round loop's shape — the op is issued and
// waited inside one iteration, with the work that hides it in between, and a
// deferred handler joins it if that work panics.
func roundLoop(f *pfs.File, rounds int, hide func()) {
	var inflight *pfs.AsyncOp
	defer func() {
		if rec := recover(); rec != nil {
			if inflight != nil {
				inflight.Wait()
			}
			panic(rec)
		}
	}()
	for r := 0; r < rounds; r++ {
		if r > 0 {
			inflight = f.ReadVAsync(0, nil, nil)
			hide()
		}
		if inflight != nil {
			inflight.Wait()
			inflight = nil
		}
	}
}

// recoverOnlyWait: a Wait that runs only while a panic unwinds does not
// cover the paths that return.
func recoverOnlyWait(f *pfs.File, hide func()) {
	var inflight *pfs.AsyncOp
	defer func() {
		if rec := recover(); rec != nil {
			inflight.Wait()
			panic(rec)
		}
	}()
	inflight = f.WriteVecAsync(0, nil, nil)
	hide()
} // want `AsyncOp inflight reaches function end without Wait`

// allowed is the annotated exception: a hand-proved invariant the analysis
// cannot see.
func allowed(f *pfs.File) {
	op := f.WriteVecAsync(0, nil, nil)
	probe(op)
	//nclint:allow=asyncwait -- fixture contract: the caller drains op through probe's side table
}
