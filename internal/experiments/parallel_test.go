package experiments

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"sync/atomic"
	"testing"
)

// TestSerialParallelByteIdentical runs experiments serially and with the
// parallel cell runner and asserts the output bytes are identical: the fan-out
// must never change results, only wall-clock time.
func TestSerialParallelByteIdentical(t *testing.T) {
	for _, id := range []string{"table1", "fig10"} {
		serial := QuickScale()
		var sout bytes.Buffer
		if err := Run(id, serial, &sout); err != nil {
			t.Fatalf("%s serial: %v", id, err)
		}
		par := QuickScale()
		par.Parallel = 8
		var pout bytes.Buffer
		if err := Run(id, par, &pout); err != nil {
			t.Fatalf("%s parallel: %v", id, err)
		}
		if !bytes.Equal(sout.Bytes(), pout.Bytes()) {
			t.Errorf("%s: serial and parallel outputs differ\n--- serial ---\n%s\n--- parallel ---\n%s",
				id, sout.String(), pout.String())
		}
	}
}

// TestRunCellsOrderAndPanic checks the runner's contract directly: results
// land at their cell index regardless of worker count, and a panicking cell
// is re-raised on the caller.
func TestRunCellsOrderAndPanic(t *testing.T) {
	for _, workers := range []int{0, 1, 3, 16} {
		// Cell counts below, equal to, and above the worker count: the
		// partitioner must clamp workers to n and still visit every index.
		for _, n := range []int{0, 1, workers, 100} {
			sc := Scale{Parallel: workers}
			got := runCells(sc, n, func(i int) int { return i * i })
			if len(got) != n {
				t.Fatalf("workers=%d n=%d: %d results", workers, n, len(got))
			}
			for i, v := range got {
				if v != i*i {
					t.Fatalf("workers=%d: cell %d = %d, want %d", workers, i, v, i*i)
				}
			}
		}
	}

	sc := Scale{Parallel: 4}
	boom := errors.New("boom")
	func() {
		defer func() {
			if r := recover(); r != boom {
				t.Errorf("recovered %v, want %v", r, boom)
			}
		}()
		runCells(sc, 8, func(i int) int {
			if i == 5 {
				panic(boom)
			}
			return i
		})
		t.Error("runCells did not propagate the cell panic")
	}()
}

// TestRunCellsEachCellOnce verifies the work-stealing partitioner hands every
// cell index to exactly one worker: a double execution would double-count
// simulation results, a skipped one would leave a zero row in a table.
func TestRunCellsEachCellOnce(t *testing.T) {
	const n = 257 // not a multiple of the worker count
	var runs [n]atomic.Int64
	runCells(Scale{Parallel: 7}, n, func(i int) struct{} {
		runs[i].Add(1)
		return struct{}{}
	})
	for i := range runs {
		if c := runs[i].Load(); c != 1 {
			t.Fatalf("cell %d ran %d times", i, c)
		}
	}
}

// TestRunCellsMergesStructResults checks merging with composite results: the
// experiment grids return per-cell structs that are assembled by index into
// ordered tables, so field values must survive the fan-out untouched.
func TestRunCellsMergesStructResults(t *testing.T) {
	type row struct {
		id    int
		label string
		ns    int64
	}
	mk := func(i int) row {
		return row{id: i, label: fmt.Sprintf("cell-%02d", i), ns: int64(i) * 1000}
	}
	serial := runCells(Scale{Parallel: 1}, 40, mk)
	fanned := runCells(Scale{Parallel: 13}, 40, mk)
	if !reflect.DeepEqual(serial, fanned) {
		t.Fatalf("fan-out changed merged results:\nserial: %v\nfanned: %v", serial, fanned)
	}
	for i, r := range fanned {
		if r.id != i {
			t.Fatalf("row %d carries id %d", i, r.id)
		}
	}
}
