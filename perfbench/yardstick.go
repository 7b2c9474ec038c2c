package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/parser"
	"go/printer"
	"go/token"
	"math"
	"os"
	"os/exec"
	"runtime"
	"syscall"
	"time"
)

// The yardstick is fixed work that belongs to the benchmark, not to the
// program. On a shared host a campaign's speed follows what the
// neighbours do to the shared caches, memory and cores, which hypervisor
// steal does not show; the yardstick slows with it. It has three tasks,
// one for each kind of work a campaign does: trees allocates and
// collects garbage over a heap twice the size of a core's L2 cache,
// as a campaign does with its ASTs, IR and interpreter state; parse runs
// a compiler front end (go/parser and go/printer) over generated source;
// interp runs a bytecode interpreter with table dispatch, as refvm and
// the minicc VM do. Each task alone follows the host's speed loosely,
// because each feels a different neighbour most; their geometric mean
// follows it more closely. Each reading runs in a fresh child process,
// as each measured campaign does, so nothing of the program's heap is in
// it.
//
// A task's time in a reading is the median CPU time of yardstickUnits
// units, so that one unit slowed by a passing neighbour does not move it;
// the reading is the geometric mean of the three tasks' times.
// yardstickRef is the reference reading the wall-clock metrics are scaled
// to, a round figure near the readings on the 2-vCPU VM the benchmark was
// built on, where a run's median reading ranged from 0.020 to 0.031 s as
// the host's load changed.
const (
	yardstickRef   = 30 * time.Millisecond
	yardstickUnits = 3
)

var yardstickTasks = []struct {
	name string
	work func() int
}{
	{"trees", treesWork},
	{"parse", parseWork},
	{"interp", interpWork},
}

// yardSink keeps the tasks' results live, so that no work is optimised
// away.
var yardSink int

type yardNode struct{ l, r *yardNode }

func yardTree(depth int) *yardNode {
	if depth == 0 {
		return &yardNode{}
	}
	return &yardNode{yardTree(depth - 1), yardTree(depth - 1)}
}

func (n *yardNode) count() int {
	if n.l == nil {
		return 1
	}
	return 1 + n.l.count() + n.r.count()
}

// treesWork builds a long-lived tree of 2^18 nodes (4 MB) and 12
// short-lived ones of 2^15 nodes, and counts them.
func treesWork() int {
	long := yardTree(17)
	n := 0
	for i := 0; i < 12; i++ {
		n += yardTree(14).count()
	}
	return n + long.count()
}

// parseSource is generated Go: functions with loops, branches and
// arithmetic, about 40 KB.
var parseSource = func() []byte {
	var b bytes.Buffer
	b.WriteString("package gen\n")
	for i := 0; i < 200; i++ {
		fmt.Fprintf(&b, `
// f%[1]d mixes its arguments.
func f%[1]d(a, b int, s []int) (int, error) {
	x := a*%[1]d + b
	for j := 0; j < len(s); j++ {
		if x%%3 == 0 && s[j] > %[1]d {
			x += s[j] << 2
		} else {
			x ^= b - j
		}
	}
	if x < 0 {
		return 0, fmt.Errorf("f%[1]d: %%d", x)
	}
	return x, nil
}
`, i)
	}
	return b.Bytes()
}()

// parseWork parses parseSource, walks the tree and prints it back.
func parseWork() int {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "gen.go", parseSource, parser.ParseComments)
	if err != nil {
		panic(err) // the source is generated above and always parses
	}
	n := 0
	ast.Inspect(f, func(ast.Node) bool { n++; return true })
	var out bytes.Buffer
	if err := printer.Fprint(&out, fset, f); err != nil {
		panic(err)
	}
	return n + out.Len()
}

// stackVM is a stack machine with table dispatch.
type stackVM struct {
	pc, sp int
	stack  [16]int64
	mem    [4096]int64
}

type vmOp func(m *stackVM, arg int64) bool

type vmIns struct {
	op  vmOp
	arg int64
}

func (m *stackVM) push(v int64) { m.stack[m.sp] = v; m.sp++ }
func (m *stackVM) pop() int64   { m.sp--; return m.stack[m.sp] }

func vmPush(m *stackVM, a int64) bool  { m.push(a); m.pc++; return true }
func vmLoad(m *stackVM, a int64) bool  { m.push(m.mem[a]); m.pc++; return true }
func vmStore(m *stackVM, a int64) bool { m.mem[a] = m.pop(); m.pc++; return true }
func vmAdd(m *stackVM, _ int64) bool   { v := m.pop(); m.push(m.pop() + v); m.pc++; return true }
func vmMul(m *stackVM, _ int64) bool   { v := m.pop(); m.push(m.pop() * v); m.pc++; return true }
func vmXor(m *stackVM, _ int64) bool   { v := m.pop(); m.push(m.pop() ^ v); m.pc++; return true }
func vmAnd(m *stackVM, a int64) bool   { m.push(m.pop() & a); m.pc++; return true }
func vmJmp(m *stackVM, a int64) bool   { m.pc = int(a); return true }
func vmHalt(*stackVM, int64) bool      { return false }

// vmTable loads mem[1024 + top&2047]; vmSetTable stores the top into
// mem[1024 + next&2047].
func vmTable(m *stackVM, _ int64) bool { m.push(m.mem[1024+m.pop()&2047]); m.pc++; return true }
func vmSetTable(m *stackVM, _ int64) bool {
	v := m.pop()
	m.mem[1024+m.pop()&2047] = v
	m.pc++
	return true
}

// vmJge jumps to arg when the next value is at least the top.
func vmJge(m *stackVM, a int64) bool {
	b := m.pop()
	if m.pop() >= b {
		m.pc = int(a)
	} else {
		m.pc++
	}
	return true
}

// interpWork runs a loop of 250,000 iterations: x = t[acc];
// t[i] = x*31 ^ acc; acc = (acc*1103 + x) & 0xffff.
func interpWork() int {
	const i, acc, x, n = 0, 1, 2, 250000
	code := []vmIns{
		{vmPush, 0}, {vmStore, i}, {vmPush, 1}, {vmStore, acc},
		{vmLoad, i}, {vmPush, n}, {vmJge, 0}, // 4: loop head; exits to the halt
		{vmLoad, acc}, {vmTable, 0}, {vmStore, x},
		{vmLoad, i}, {vmLoad, x}, {vmPush, 31}, {vmMul, 0}, {vmLoad, acc}, {vmXor, 0}, {vmSetTable, 0},
		{vmLoad, acc}, {vmPush, 1103}, {vmMul, 0}, {vmLoad, x}, {vmAdd, 0}, {vmAnd, 0xffff}, {vmStore, acc},
		{vmLoad, i}, {vmPush, 1}, {vmAdd, 0},
		{vmStore, i}, {vmJmp, 4},
		{vmHalt, 0},
	}
	code[6].arg = int64(len(code) - 1)
	m := &stackVM{}
	steps := 0
	for in := code[m.pc]; in.op(m, in.arg); in = code[m.pc] {
		steps++
	}
	return steps + int(m.mem[acc])
}

func cpuTime(ru syscall.Rusage) time.Duration {
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// measureYardstick takes one reading in this process, on one thread, so
// that no idle processor picks up garbage-collection work
// opportunistically and adds CPU time that varies from reading to
// reading. CPU time is the process's user and system time, which the
// kernel does not charge for time the hypervisor stole.
func measureYardstick() (time.Duration, error) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	logSum := 0.0
	for _, task := range yardstickTasks {
		var units []float64
		for i := 0; i < yardstickUnits; i++ {
			runtime.GC() // every unit starts from the same empty heap
			var a, b syscall.Rusage
			if err := syscall.Getrusage(syscall.RUSAGE_SELF, &a); err != nil {
				return 0, err
			}
			yardSink += task.work()
			if err := syscall.Getrusage(syscall.RUSAGE_SELF, &b); err != nil {
				return 0, err
			}
			units = append(units, float64(cpuTime(b)-cpuTime(a)))
		}
		logSum += math.Log(median(units))
	}
	return time.Duration(math.Exp(logSum / float64(len(yardstickTasks)))), nil
}

// yardstickReading is what a yardstick child prints.
type yardstickReading struct {
	CPU time.Duration `json:"cpu_ns"`
}

// readYardstick takes one reading in a child process of this binary.
func readYardstick(ctx context.Context) (time.Duration, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, err
	}
	cmd := exec.CommandContext(ctx, exe, "--yardstick")
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Run(); err != nil {
		return 0, fmt.Errorf("yardstick child: %v: %s", err, bytes.TrimSpace(stderr.Bytes()))
	}
	var r yardstickReading
	if err := json.Unmarshal(stdout.Bytes(), &r); err != nil || r.CPU <= 0 {
		return 0, fmt.Errorf("yardstick child output %q: %v", bytes.TrimSpace(stdout.Bytes()), err)
	}
	return r.CPU, nil
}

// hostSpeed is how fast the host ran, relative to the reference, while
// the readings were taken: the reference reading over their median. A
// rate measured on the host divided by it, or a time multiplied by it,
// reads as it would at the reference speed.
func hostSpeed(readings []float64) float64 {
	return ratio(yardstickRef.Seconds(), median(readings))
}
