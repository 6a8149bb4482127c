package batch

import (
	"fmt"
	"strings"
	"testing"
)

func TestPanicHookObservesAndRepanics(t *testing.T) {
	type capture struct {
		task      int
		recovered any
		stack     string
	}
	var got *capture
	SetPanicHook(func(task int, recovered any, stack []byte) {
		got = &capture{task: task, recovered: recovered, stack: string(stack)}
	})
	defer SetPanicHook(nil)

	// workers=1 runs tasks on the caller's goroutine, so the re-panic is
	// recoverable here; crash semantics on worker goroutines are identical.
	var repanicked any
	func() {
		defer func() { repanicked = recover() }()
		_ = Run(3, 1, func(i, _ int) error {
			if i == 1 {
				panic("task one exploded")
			}
			return nil
		})
	}()

	if repanicked != "task one exploded" {
		t.Fatalf("panic was swallowed: recovered %v", repanicked)
	}
	if got == nil {
		t.Fatal("panic hook did not fire")
	}
	if got.task != 1 || got.recovered != "task one exploded" {
		t.Fatalf("hook saw (task=%d, recovered=%v)", got.task, got.recovered)
	}
	if !strings.Contains(got.stack, "panichook_test.go") {
		t.Fatalf("hook stack does not point at the panic site:\n%s", got.stack)
	}
}

func TestPanicHookNilPathUnchanged(t *testing.T) {
	SetPanicHook(nil)
	var ran int
	err := Run(4, 1, func(i, _ int) error {
		ran++
		if i == 2 {
			return fmt.Errorf("task %d failed", i)
		}
		return nil
	})
	if ran != 4 {
		t.Fatalf("ran %d tasks, want 4", ran)
	}
	if err == nil || !strings.Contains(err.Error(), "task 2") {
		t.Fatalf("err = %v, want task 2 failure", err)
	}
}
