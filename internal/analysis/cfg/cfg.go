// Package cfg builds per-function control-flow graphs from go/ast for the
// stitchvet flow-sensitive analyzers.
//
// A Graph is a list of basic blocks over one function body. Each block
// holds the AST nodes that execute in it, in execution order: plain
// statements appear whole, while compound statements are decomposed — an
// `if` contributes its init statement and condition expression to the
// current block and fresh blocks for the branches, a `for` gets head,
// body, and post blocks with the loop back edge, a `range` statement
// appears itself as the single node of its head block (one evaluation of
// the range operands plus the per-iteration key/value assignment), and a
// `select` contributes one block per communication clause with the comm
// statement as its first node. `break`, `continue`, `goto` (including
// labeled forms and `fallthrough`) become edges; `return` and `panic`
// edges run to the distinguished Exit block. A defer statement is a plain
// node of its block, where its arguments are evaluated.
//
// Function literals are NOT inlined: a FuncLit inside an expression is an
// opaque value in the enclosing graph, and callers build a separate Graph
// for its body. This keeps each graph a faithful model of one activation
// record, which is what the dataflow solver iterates over.
package cfg

import (
	"go/ast"
	"strings"
)

// Block is one basic block.
type Block struct {
	Index int    // position in Graph.Blocks, stable across runs
	Kind  string // human-readable role, e.g. "entry", "for.head", "if.then"
	Nodes []ast.Node
	Succs []*Block
	Preds []*Block
}

// Graph is the control-flow graph of one function body.
type Graph struct {
	Entry  *Block
	Exit   *Block
	Blocks []*Block
}

// New builds the CFG of a function body. It accepts the body directly so
// the same constructor serves *ast.FuncDecl and *ast.FuncLit.
func New(body *ast.BlockStmt) *Graph {
	b := &builder{g: &Graph{}, labels: map[string]*labelInfo{}}
	b.g.Entry = b.newBlock("entry")
	b.g.Exit = b.newBlock("exit")
	b.cur = b.g.Entry
	b.stmtList(body.List)
	// Falling off the end of the function returns.
	b.edgeTo(b.g.Exit)
	b.resolveGotos()
	return b.g
}

// frame is one enclosing breakable/continuable construct.
type frame struct {
	label      string
	breakTo    *Block
	continueTo *Block // nil for switch/select frames
}

// labelInfo tracks a declared label (goto target) and any forward gotos
// waiting for it.
type labelInfo struct {
	block   *Block
	pending []*Block // blocks ending in `goto label` seen before the label
}

type builder struct {
	g      *Graph
	cur    *Block // nil while the current point is unreachable
	frames []frame
	labels map[string]*labelInfo
	// pendingLabel is set between a LabeledStmt and the construct it
	// labels, so `outer: for ...` registers "outer" on the loop's frame.
	pendingLabel string
	// fallTo is the next case-clause block while building a switch body;
	// a `fallthrough` statement becomes an edge to it.
	fallTo *Block
}

func (b *builder) newBlock(kind string) *Block {
	blk := &Block{Index: len(b.g.Blocks), Kind: kind}
	b.g.Blocks = append(b.g.Blocks, blk)
	return blk
}

// edge adds from→to.
func edge(from, to *Block) {
	from.Succs = append(from.Succs, to)
	to.Preds = append(to.Preds, from)
}

// edgeTo links the current block to dst, if reachable.
func (b *builder) edgeTo(dst *Block) {
	if b.cur != nil {
		edge(b.cur, dst)
	}
}

// add appends a node to the current block. Unreachable statements get a
// fresh predecessor-less block so analyzers still see their nodes.
func (b *builder) add(n ast.Node) {
	if b.cur == nil {
		b.cur = b.newBlock("unreachable")
	}
	b.cur.Nodes = append(b.cur.Nodes, n)
}

func (b *builder) stmtList(list []ast.Stmt) {
	for _, s := range list {
		b.stmt(s)
	}
}

func (b *builder) stmt(s ast.Stmt) {
	switch s := s.(type) {
	case nil, *ast.EmptyStmt:
	case *ast.BlockStmt:
		b.stmtList(s.List)
	case *ast.LabeledStmt:
		b.labeled(s)
	case *ast.ReturnStmt:
		b.add(s)
		b.edgeTo(b.g.Exit)
		b.cur = nil
	case *ast.BranchStmt:
		b.branch(s)
	case *ast.IfStmt:
		b.ifStmt(s)
	case *ast.ForStmt:
		b.forStmt(s)
	case *ast.RangeStmt:
		b.rangeStmt(s)
	case *ast.SwitchStmt:
		b.switchStmt(s)
	case *ast.TypeSwitchStmt:
		b.typeSwitchStmt(s)
	case *ast.SelectStmt:
		b.selectStmt(s)
	case *ast.ExprStmt:
		b.add(s)
		if call, ok := ast.Unparen(s.X).(*ast.CallExpr); ok && isTerminatingCall(call) {
			b.edgeTo(b.g.Exit)
			b.cur = nil
		}
	default:
		// Assign, Decl, IncDec, Send, Go, Defer: straight-line nodes.
		b.add(s)
	}
}

// isTerminatingCall recognizes calls that never return, by name: the
// panic builtin, os.Exit, runtime.Goexit, and log.Fatal*. Name-based
// matching is deliberate — the graph is built before (and independent of)
// type checking.
func isTerminatingCall(call *ast.CallExpr) bool {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return fun.Name == "panic"
	case *ast.SelectorExpr:
		if pkg, ok := ast.Unparen(fun.X).(*ast.Ident); ok {
			switch {
			case pkg.Name == "os" && fun.Sel.Name == "Exit",
				pkg.Name == "runtime" && fun.Sel.Name == "Goexit",
				pkg.Name == "log" && strings.HasPrefix(fun.Sel.Name, "Fatal"):
				return true
			}
		}
	}
	return false
}

func (b *builder) labeled(s *ast.LabeledStmt) {
	name := s.Label.Name
	info := b.labels[name]
	if info == nil {
		info = &labelInfo{}
		b.labels[name] = info
	}
	lab := b.newBlock("label." + name)
	b.edgeTo(lab)
	b.cur = lab
	info.block = lab
	for _, from := range info.pending {
		edge(from, lab)
	}
	info.pending = nil
	b.pendingLabel = name
	b.stmt(s.Stmt)
	b.pendingLabel = ""
}

func (b *builder) branch(s *ast.BranchStmt) {
	b.add(s)
	switch s.Tok.String() {
	case "break":
		if f := b.findFrame(s.Label, false); f != nil {
			b.edgeTo(f.breakTo)
		}
	case "continue":
		if f := b.findFrame(s.Label, true); f != nil {
			b.edgeTo(f.continueTo)
		}
	case "goto":
		name := s.Label.Name
		info := b.labels[name]
		if info == nil {
			info = &labelInfo{}
			b.labels[name] = info
		}
		if info.block != nil {
			b.edgeTo(info.block)
		} else if b.cur != nil {
			info.pending = append(info.pending, b.cur)
		}
	case "fallthrough":
		if b.fallTo != nil {
			b.edgeTo(b.fallTo)
		}
	}
	b.cur = nil
}

// findFrame locates the frame a break/continue targets. wantLoop
// restricts the search to loop frames (continue skips switch/select).
func (b *builder) findFrame(label *ast.Ident, wantLoop bool) *frame {
	for i := len(b.frames) - 1; i >= 0; i-- {
		f := &b.frames[i]
		if wantLoop && f.continueTo == nil {
			continue
		}
		if label == nil || f.label == label.Name {
			return f
		}
	}
	return nil
}

// takeLabel consumes the pending label for the construct being built.
func (b *builder) takeLabel() string {
	l := b.pendingLabel
	b.pendingLabel = ""
	return l
}

func (b *builder) pushFrame(label string, breakTo, continueTo *Block) {
	b.frames = append(b.frames, frame{label: label, breakTo: breakTo, continueTo: continueTo})
}

func (b *builder) popFrame() { b.frames = b.frames[:len(b.frames)-1] }

func (b *builder) ifStmt(s *ast.IfStmt) {
	label := b.takeLabel()
	_ = label // a label on an if only serves goto; the label block exists
	if s.Init != nil {
		b.add(s.Init)
	}
	b.add(s.Cond)
	head := b.cur
	after := b.newBlock("if.after")

	then := b.newBlock("if.then")
	if head != nil {
		edge(head, then)
	}
	b.cur = then
	b.stmtList(s.Body.List)
	b.edgeTo(after)

	if s.Else != nil {
		els := b.newBlock("if.else")
		if head != nil {
			edge(head, els)
		}
		b.cur = els
		b.stmt(s.Else)
		b.edgeTo(after)
	} else if head != nil {
		edge(head, after)
	}
	b.cur = after
}

func (b *builder) forStmt(s *ast.ForStmt) {
	label := b.takeLabel()
	if s.Init != nil {
		b.add(s.Init)
	}
	head := b.newBlock("for.head")
	b.edgeTo(head)
	if s.Cond != nil {
		head.Nodes = append(head.Nodes, s.Cond)
	}
	body := b.newBlock("for.body")
	after := b.newBlock("for.after")
	edge(head, body)
	if s.Cond != nil {
		// `for {}` has no exit edge from the head: after is reachable
		// only through break.
		edge(head, after)
	}
	continueTo := head
	var post *Block
	if s.Post != nil {
		post = b.newBlock("for.post")
		post.Nodes = append(post.Nodes, s.Post)
		edge(post, head)
		continueTo = post
	}
	b.pushFrame(label, after, continueTo)
	b.cur = body
	b.stmtList(s.Body.List)
	b.edgeTo(continueTo)
	b.popFrame()
	b.cur = after
}

func (b *builder) rangeStmt(s *ast.RangeStmt) {
	label := b.takeLabel()
	head := b.newBlock("range.head")
	b.edgeTo(head)
	// The RangeStmt itself is the head's node: one evaluation of X plus
	// the per-iteration key/value assignment. Analyzers walking a
	// RangeStmt node must not descend into s.Body — those statements live
	// in the body block.
	head.Nodes = append(head.Nodes, s)
	body := b.newBlock("range.body")
	after := b.newBlock("range.after")
	edge(head, body)
	edge(head, after)
	b.pushFrame(label, after, head)
	b.cur = body
	b.stmtList(s.Body.List)
	b.edgeTo(head)
	b.popFrame()
	b.cur = after
}

func (b *builder) switchStmt(s *ast.SwitchStmt) {
	label := b.takeLabel()
	if s.Init != nil {
		b.add(s.Init)
	}
	if s.Tag != nil {
		b.add(s.Tag)
	}
	head := b.cur
	after := b.newBlock("switch.after")
	b.pushFrame(label, after, nil)

	clauses := s.Body.List
	blocks := make([]*Block, len(clauses))
	hasDefault := false
	for i, c := range clauses {
		cc := c.(*ast.CaseClause)
		kind := "switch.case"
		if cc.List == nil {
			kind = "switch.default"
			hasDefault = true
		}
		blocks[i] = b.newBlock(kind)
		for _, e := range cc.List {
			blocks[i].Nodes = append(blocks[i].Nodes, e)
		}
		if head != nil {
			edge(head, blocks[i])
		}
	}
	if !hasDefault && head != nil {
		edge(head, after)
	}
	savedFall := b.fallTo
	for i, c := range clauses {
		cc := c.(*ast.CaseClause)
		if i+1 < len(blocks) {
			b.fallTo = blocks[i+1]
		} else {
			b.fallTo = nil
		}
		b.cur = blocks[i]
		b.stmtList(cc.Body)
		b.edgeTo(after)
	}
	b.fallTo = savedFall
	b.popFrame()
	b.cur = after
}

func (b *builder) typeSwitchStmt(s *ast.TypeSwitchStmt) {
	label := b.takeLabel()
	if s.Init != nil {
		b.add(s.Init)
	}
	b.add(s.Assign)
	head := b.cur
	after := b.newBlock("switch.after")
	b.pushFrame(label, after, nil)
	hasDefault := false
	for _, c := range s.Body.List {
		cc := c.(*ast.CaseClause)
		kind := "switch.case"
		if cc.List == nil {
			kind = "switch.default"
			hasDefault = true
		}
		blk := b.newBlock(kind)
		if head != nil {
			edge(head, blk)
		}
		b.cur = blk
		b.stmtList(cc.Body)
		b.edgeTo(after)
	}
	if !hasDefault && head != nil {
		edge(head, after)
	}
	b.popFrame()
	b.cur = after
}

func (b *builder) selectStmt(s *ast.SelectStmt) {
	label := b.takeLabel()
	head := b.cur
	if head == nil {
		head = b.newBlock("unreachable")
		b.cur = head
	}
	after := b.newBlock("select.after")
	b.pushFrame(label, after, nil)
	for _, c := range s.Body.List {
		cc := c.(*ast.CommClause)
		kind := "select.case"
		if cc.Comm == nil {
			kind = "select.default"
		}
		blk := b.newBlock(kind)
		edge(head, blk)
		b.cur = blk
		if cc.Comm != nil {
			// The comm statement (receive/send) executes when this case
			// is chosen.
			b.add(cc.Comm)
		}
		b.stmtList(cc.Body)
		b.edgeTo(after)
	}
	// An empty select blocks forever; otherwise control always enters
	// exactly one case, so head has no direct edge to after.
	b.popFrame()
	if len(s.Body.List) == 0 {
		b.cur = nil
		_ = after
	} else {
		b.cur = after
	}
}

func (b *builder) resolveGotos() {
	// Forward gotos to labels that never appear (malformed source) are
	// dropped; the type checker reports those programs anyway.
	for _, info := range b.labels {
		info.pending = nil
	}
}

// RevPostorder returns the blocks reachable from Entry in reverse
// postorder — the canonical iteration order for a forward dataflow
// analysis. Unreachable blocks are appended at the end in index order so
// analyzers still visit their nodes.
func (g *Graph) RevPostorder() []*Block {
	seen := make([]bool, len(g.Blocks))
	var post []*Block
	var dfs func(*Block)
	dfs = func(blk *Block) {
		seen[blk.Index] = true
		for _, s := range blk.Succs {
			if !seen[s.Index] {
				dfs(s)
			}
		}
		post = append(post, blk)
	}
	dfs(g.Entry)
	out := make([]*Block, 0, len(g.Blocks))
	for i := len(post) - 1; i >= 0; i-- {
		out = append(out, post[i])
	}
	for _, blk := range g.Blocks {
		if !seen[blk.Index] {
			out = append(out, blk)
		}
	}
	return out
}

// InLoop reports, per block index, whether the block lies inside a
// natural loop: for each back edge t→h found by depth-first search, the
// loop body is h plus every block that reaches t without passing through
// h. A block in the body executes arbitrarily many times per function
// call; hotalloc's "one-time setup" allowlist is exactly the complement.
func (g *Graph) InLoop() []bool {
	in := make([]bool, len(g.Blocks))
	// Find back edges with an iterative DFS that tracks the stack.
	const (
		white = 0
		grey  = 1
		black = 2
	)
	color := make([]int, len(g.Blocks))
	type backEdge struct{ tail, head *Block }
	var backs []backEdge
	var dfs func(*Block)
	dfs = func(blk *Block) {
		color[blk.Index] = grey
		for _, s := range blk.Succs {
			switch color[s.Index] {
			case white:
				dfs(s)
			case grey:
				backs = append(backs, backEdge{tail: blk, head: s})
			}
		}
		color[blk.Index] = black
	}
	dfs(g.Entry)

	for _, be := range backs {
		// Flood backwards from the tail, stopping at the head.
		in[be.head.Index] = true
		if be.tail == be.head {
			continue
		}
		stack := []*Block{be.tail}
		for len(stack) > 0 {
			blk := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if in[blk.Index] {
				continue
			}
			in[blk.Index] = true
			for _, p := range blk.Preds {
				if !in[p.Index] {
					stack = append(stack, p)
				}
			}
		}
	}
	return in
}
