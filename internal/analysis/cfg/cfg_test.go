package cfg

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"sort"
	"strings"
	"testing"
)

// debugString renders the graph as one line per block:
//
//	b0 entry -> b2 b3
//
// in index order, for the hand-written expectations below.
func debugString(g *Graph) string {
	var sb strings.Builder
	for _, blk := range g.Blocks {
		fmt.Fprintf(&sb, "b%d %s", blk.Index, blk.Kind)
		if len(blk.Succs) > 0 {
			succs := make([]int, len(blk.Succs))
			for i, s := range blk.Succs {
				succs[i] = s.Index
			}
			sort.Ints(succs)
			sb.WriteString(" ->")
			for _, s := range succs {
				fmt.Fprintf(&sb, " b%d", s)
			}
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// build parses a function body and constructs its graph.
func build(t *testing.T, body string) *Graph {
	t.Helper()
	src := "package p\nfunc f() {\n" + body + "\n}\n"
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, "f.go", src, parser.SkipObjectResolution)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	fn := file.Decls[0].(*ast.FuncDecl)
	return New(fn.Body)
}

// expect compares the graph against a hand-written block/edge list.
func expect(t *testing.T, g *Graph, want string) {
	t.Helper()
	got := strings.TrimSpace(debugString(g))
	want = strings.TrimSpace(want)
	if got != want {
		t.Errorf("graph mismatch\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

func TestStraightLine(t *testing.T) {
	g := build(t, "x := 1\nx++\nreturn")
	expect(t, g, `
b0 entry -> b1
b1 exit
`)
	if n := len(g.Entry.Nodes); n != 3 {
		t.Errorf("entry nodes = %d, want 3", n)
	}
}

func TestIfElse(t *testing.T) {
	g := build(t, "x := 1\nif x > 0 {\n\tx = 2\n} else {\n\tx = 3\n}\nx++")
	expect(t, g, `
b0 entry -> b3 b4
b1 exit
b2 if.after -> b1
b3 if.then -> b2
b4 if.else -> b2
`)
}

// TestForNoPost is the `for {}` edge case: no condition means no exit
// edge from the head — for.after is reachable only via break, and with no
// break it has no predecessors at all.
func TestForNoPost(t *testing.T) {
	g := build(t, "x := 0\nfor {\n\tx++\n}")
	expect(t, g, `
b0 entry -> b2
b1 exit
b2 for.head -> b3
b3 for.body -> b2
b4 for.after -> b1
`)
	if len(g.Blocks[4].Preds) != 0 {
		t.Errorf("for.after of an infinite loop must have no preds, got %d", len(g.Blocks[4].Preds))
	}
	in := g.InLoop()
	for i, want := range []bool{false, false, true, true, false} {
		if in[i] != want {
			t.Errorf("InLoop[b%d] = %v, want %v", i, in[i], want)
		}
	}
}

func TestForNoPostWithBreak(t *testing.T) {
	g := build(t, "x := 0\nfor {\n\tif x > 3 {\n\t\tbreak\n\t}\n\tx++\n}")
	expect(t, g, `
b0 entry -> b2
b1 exit
b2 for.head -> b3
b3 for.body -> b5 b6
b4 for.after -> b1
b5 if.after -> b2
b6 if.then -> b4
`)
}

func TestForFull(t *testing.T) {
	g := build(t, "for i := 0; i < 3; i++ {\n\t_ = i\n}")
	expect(t, g, `
b0 entry -> b2
b1 exit
b2 for.head -> b3 b4
b3 for.body -> b5
b4 for.after -> b1
b5 for.post -> b2
`)
	in := g.InLoop()
	for i, want := range []bool{false, false, true, true, false, true} {
		if in[i] != want {
			t.Errorf("InLoop[b%d] = %v, want %v", i, in[i], want)
		}
	}
}

// TestSwitchFallthrough: the fallthrough edge runs from the first case
// block straight into the second case's body, never through switch.after.
func TestSwitchFallthrough(t *testing.T) {
	g := build(t, "x := 0\nswitch x {\ncase 0:\n\tx = 1\n\tfallthrough\ncase 1:\n\tx = 2\ndefault:\n\tx = 3\n}")
	expect(t, g, `
b0 entry -> b3 b4 b5
b1 exit
b2 switch.after -> b1
b3 switch.case -> b4
b4 switch.case -> b2
b5 switch.default -> b2
`)
}

// TestSwitchNoDefault: without a default clause the head keeps a direct
// edge to switch.after (no case may match).
func TestSwitchNoDefault(t *testing.T) {
	g := build(t, "x := 0\nswitch x {\ncase 0:\n\tx = 1\n}")
	expect(t, g, `
b0 entry -> b2 b3
b1 exit
b2 switch.after -> b1
b3 switch.case -> b2
`)
}

// TestLabeledBreakContinue: `continue outer` from the inner loop targets
// the outer loop's post block (b6); `break outer` targets the outer
// loop's after block (b5), not the inner one.
func TestLabeledBreakContinue(t *testing.T) {
	g := build(t, `outer:
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			if j == 1 {
				continue outer
			}
			if j == 2 {
				break outer
			}
		}
	}`)
	expect(t, g, `
b0 entry -> b2
b1 exit
b2 label.outer -> b3
b3 for.head -> b4 b5
b4 for.body -> b7
b5 for.after -> b1
b6 for.post -> b3
b7 for.head -> b8 b9
b8 for.body -> b11 b12
b9 for.after -> b6
b10 for.post -> b7
b11 if.after -> b13 b14
b12 if.then -> b6
b13 if.after -> b10
b14 if.then -> b5
`)
}

// TestDeferInLoop: the defer statement sits in the loop body block (its
// arguments are evaluated there every iteration).
func TestDeferInLoop(t *testing.T) {
	g := build(t, "for i := 0; i < 3; i++ {\n\tdefer println(i)\n}")
	expect(t, g, `
b0 entry -> b2
b1 exit
b2 for.head -> b3 b4
b3 for.body -> b5
b4 for.after -> b1
b5 for.post -> b2
`)
	found := false
	for _, n := range g.Blocks[3].Nodes {
		if _, ok := n.(*ast.DeferStmt); ok {
			found = true
		}
	}
	if !found {
		t.Errorf("defer statement not recorded in the for.body block")
	}
	if !g.InLoop()[3] {
		t.Errorf("defer-in-loop body block must be InLoop")
	}
}

func TestRange(t *testing.T) {
	g := build(t, "s := []int{1}\nfor _, v := range s {\n\t_ = v\n}")
	expect(t, g, `
b0 entry -> b2
b1 exit
b2 range.head -> b3 b4
b3 range.body -> b2
b4 range.after -> b1
`)
	// The RangeStmt itself is the head's only node.
	if n := len(g.Blocks[2].Nodes); n != 1 {
		t.Fatalf("range.head nodes = %d, want 1", n)
	}
	if _, ok := g.Blocks[2].Nodes[0].(*ast.RangeStmt); !ok {
		t.Errorf("range.head node is %T, want *ast.RangeStmt", g.Blocks[2].Nodes[0])
	}
}

// TestGotoBackward: a backward goto forms a loop that InLoop detects even
// though no for statement exists.
func TestGotoBackward(t *testing.T) {
	g := build(t, "x := 0\nloop:\n\tx++\nif x < 3 {\n\tgoto loop\n}")
	expect(t, g, `
b0 entry -> b2
b1 exit
b2 label.loop -> b3 b4
b3 if.after -> b1
b4 if.then -> b2
`)
	in := g.InLoop()
	if !in[2] || !in[4] {
		t.Errorf("goto loop must mark label and branch blocks InLoop, got %v", in)
	}
}

func TestSelect(t *testing.T) {
	g := build(t, "var a, b chan int\nselect {\ncase <-a:\n\t_ = 1\ncase v := <-b:\n\t_ = v\n}")
	expect(t, g, `
b0 entry -> b3 b4
b1 exit
b2 select.after -> b1
b3 select.case -> b2
b4 select.case -> b2
`)
}

func TestReturnMakesUnreachable(t *testing.T) {
	g := build(t, "return\nx := 1\n_ = x")
	expect(t, g, `
b0 entry -> b1
b1 exit
b2 unreachable -> b1
`)
	rpo := g.RevPostorder()
	if rpo[0] != g.Entry {
		t.Errorf("RevPostorder must start at entry")
	}
	// Unreachable blocks come last.
	if rpo[len(rpo)-1].Kind != "unreachable" {
		t.Errorf("unreachable block must sort last in RevPostorder, got %s", rpo[len(rpo)-1].Kind)
	}
}

func TestPanicTerminates(t *testing.T) {
	g := build(t, "x := 1\nif x > 0 {\n\tpanic(\"no\")\n}\n_ = x")
	// The then-block must edge to exit, not to if.after.
	var then *Block
	for _, blk := range g.Blocks {
		if blk.Kind == "if.then" {
			then = blk
		}
	}
	if then == nil {
		t.Fatal("no if.then block")
	}
	if len(then.Succs) != 1 || then.Succs[0] != g.Exit {
		t.Errorf("panic block must edge only to exit, got %v", then.Succs)
	}
}

func TestRevPostorderVisitsLoopHeadFirst(t *testing.T) {
	g := build(t, "for i := 0; i < 3; i++ {\n\t_ = i\n}")
	rpo := g.RevPostorder()
	pos := map[string]int{}
	for i, blk := range rpo {
		if _, ok := pos[blk.Kind]; !ok {
			pos[blk.Kind] = i
		}
	}
	if !(pos["entry"] < pos["for.head"] && pos["for.head"] < pos["for.body"]) {
		t.Errorf("bad reverse postorder: %v", pos)
	}
}

// TestRangeOverInt: Go 1.22 range-over-int builds the same loop shape as
// ranging a slice — head with body/after successors and a back edge —
// and InLoop marks head and body but not after.
func TestRangeOverInt(t *testing.T) {
	g := build(t, "total := 0\nfor i := range 10 {\n\ttotal += i\n}\n_ = total")
	expect(t, g, `
b0 entry -> b2
b1 exit
b2 range.head -> b3 b4
b3 range.body -> b2
b4 range.after -> b1
`)
	in := g.InLoop()
	if !in[2] || !in[3] {
		t.Errorf("range-over-int must mark head and body InLoop, got %v", in)
	}
	if in[4] {
		t.Errorf("range.after must not be InLoop, got %v", in)
	}
}

// TestSelectMixedSendRecv: a send case and a receive case build the same
// shape; a case ending in return bypasses select.after entirely.
func TestSelectMixedSendRecv(t *testing.T) {
	g := build(t, "var a chan int\nvar done chan int\nselect {\ncase a <- 1:\n\tx := 1\n\t_ = x\ncase <-done:\n\treturn\n}\n_ = a")
	expect(t, g, `
b0 entry -> b3 b4
b1 exit
b2 select.after -> b1
b3 select.case -> b2
b4 select.case -> b1
`)
	// The send comm statement belongs to its case block: comm + two body
	// statements.
	if n := len(g.Blocks[3].Nodes); n != 3 {
		t.Errorf("send case nodes = %d, want 3 (comm, assign, use)", n)
	}
}

// TestSelectDefault: the default clause gets its own block kind, and the
// head still has no direct edge to select.after — exactly one arm runs.
func TestSelectDefault(t *testing.T) {
	g := build(t, "var c chan int\nselect {\ncase v := <-c:\n\t_ = v\ndefault:\n\t_ = 0\n}")
	expect(t, g, `
b0 entry -> b3 b4
b1 exit
b2 select.after -> b1
b3 select.case -> b2
b4 select.default -> b2
`)
}

// TestSelectNested: a select inside a case body — the inner after block
// feeds the outer one, and each head branches only to its own arms.
func TestSelectNested(t *testing.T) {
	g := build(t, "var a, b chan int\nselect {\ncase <-a:\n\tselect {\n\tcase <-b:\n\tdefault:\n\t}\ndefault:\n}")
	expect(t, g, `
b0 entry -> b3 b7
b1 exit
b2 select.after -> b1
b3 select.case -> b5 b6
b4 select.after -> b2
b5 select.case -> b4
b6 select.default -> b4
b7 select.default -> b2
`)
}

// TestSelectInLoopLabeledBreak: `break outer` from a select case must
// target the loop's after block, not the select's; the default arm loops
// back through the head.
func TestSelectInLoopLabeledBreak(t *testing.T) {
	g := build(t, "var c chan int\nouter:\nfor {\n\tselect {\n\tcase <-c:\n\t\tbreak outer\n\tdefault:\n\t}\n}\n_ = c")
	expect(t, g, `
b0 entry -> b2
b1 exit
b2 label.outer -> b3
b3 for.head -> b4
b4 for.body -> b7 b8
b5 for.after -> b1
b6 select.after -> b3
b7 select.case -> b5
b8 select.default -> b6
`)
}

// TestSelectEmpty: `select {}` blocks forever, so everything after it is
// unreachable from the entry.
func TestSelectEmpty(t *testing.T) {
	g := build(t, "x := 1\nselect {}\nx = 2\n_ = x")
	got := debugString(g)
	if !strings.Contains(got, "select.after") {
		t.Fatalf("missing select.after block:\n%s", got)
	}
	// No path from entry may reach the exit: the empty select never
	// proceeds.
	reached := map[*Block]bool{}
	var walk func(b *Block)
	walk = func(b *Block) {
		if reached[b] {
			return
		}
		reached[b] = true
		for _, s := range b.Succs {
			walk(s)
		}
	}
	walk(g.Entry)
	if reached[g.Exit] {
		t.Errorf("exit reachable across an empty select:\n%s", got)
	}
}
