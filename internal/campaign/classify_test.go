package campaign

import (
	"testing"

	"spe/internal/interp"
	"spe/internal/minicc"
)

// TestMatchesOracle pins the one agreement check classification,
// attribution, and reduction share, over a reference that aborts or exits
// against a compiled run that exits, prints, traps, hangs, or aborts. An
// aborting reference is matched by any aborting run, whatever it printed:
// before the check was shared, attribution demanded a clean run there and
// so could never attribute a miscompiled aborting variant, and the
// reducer kept shrinking toward programs that merely abort.
func TestMatchesOracle(t *testing.T) {
	exits := &interp.Result{Exit: 3, Output: "x=1\n"}
	aborts := &interp.Result{Aborted: true, Output: "x=1\n"}
	cases := []struct {
		name string
		ref  *interp.Result
		ex   minicc.ExecResult
		want bool
	}{
		{"exit: same exit and output", exits, minicc.ExecResult{Exit: 3, Output: "x=1\n"}, true},
		{"exit: wrong exit", exits, minicc.ExecResult{Exit: 4, Output: "x=1\n"}, false},
		{"exit: wrong output", exits, minicc.ExecResult{Exit: 3, Output: "x=2\n"}, false},
		{"exit: trap", exits, minicc.ExecResult{Exit: 3, Output: "x=1\n", Trap: "division by zero"}, false},
		{"exit: timeout", exits, minicc.ExecResult{Exit: 3, Output: "x=1\n", Timeout: true}, false},
		{"exit: abort", exits, minicc.ExecResult{Exit: 3, Output: "x=1\n", Aborted: true}, false},
		{"abort: abort, same output", aborts, minicc.ExecResult{Aborted: true, Output: "x=1\n"}, true},
		{"abort: abort, other output", aborts, minicc.ExecResult{Aborted: true, Output: "x=2\n"}, true},
		{"abort: clean exit", aborts, minicc.ExecResult{Output: "x=1\n"}, false},
		{"abort: wrong exit", aborts, minicc.ExecResult{Exit: 1, Output: "x=1\n"}, false},
		{"abort: trap", aborts, minicc.ExecResult{Output: "x=1\n", Trap: "null dereference"}, false},
		{"abort: timeout", aborts, minicc.ExecResult{Output: "x=1\n", Timeout: true}, false},
	}
	for _, c := range cases {
		if got := matchesOracle(&c.ex, c.ref); got != c.want {
			t.Errorf("%s: matchesOracle = %v, want %v", c.name, got, c.want)
		}
	}
}
