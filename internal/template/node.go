package template

import (
	"fmt"
)

// node is one parsed template element. It appends its output to st.out.
type node interface {
	render(st *renderState) error
}

// renderState carries per-render machinery: the owning set (for
// includes), the Context, the output buffer, and the block-override
// chain built by {% extends %}. States are pooled (see Set); an
// {% include %} reuses its caller's state.
type renderState struct {
	set *Set
	ctx Context
	out []byte
	// overrides[base:n] holds the blocks of each template in the current
	// inheritance chain, most-derived first. A {% block %} renders the
	// first override found, falling back to its own body. An include
	// starts a fresh chain above the includer's.
	overrides [maxRenderDepth]map[string]nodeList
	base, n   int
	depth     int // include/extends nesting guard
	// loops holds one forloop per nesting level, reused across loops
	// and renders.
	loops     []*forloop
	loopDepth int
}

const maxRenderDepth = 16

type nodeList []node

func (l nodeList) render(st *renderState) error {
	for _, n := range l {
		if err := n.render(st); err != nil {
			return err
		}
	}
	return nil
}

// textNode is literal template text.
type textNode string

func (t textNode) render(st *renderState) error {
	st.out = append(st.out, t...)
	return nil
}

// varNode is {{ expression }}. Output is HTML-escaped unless the value is
// Safe (e.g. passed through the safe filter).
type varNode struct {
	e    expr
	line int
}

func (v varNode) render(st *renderState) error {
	val, err := v.e.eval(&st.ctx)
	if err != nil {
		return fmt.Errorf("line %d: %w", v.line, err)
	}
	st.out = appendValue(st.out, val)
	return nil
}

// ifBranch is one arm of {% if %} / {% elif %}.
type ifBranch struct {
	cond expr
	body nodeList
}

type ifNode struct {
	branches []ifBranch
	elseBody nodeList
}

func (n ifNode) render(st *renderState) error {
	for _, br := range n.branches {
		v, err := br.cond.eval(&st.ctx)
		if err != nil {
			return err
		}
		if Truth(v) {
			return br.body.render(st)
		}
	}
	return n.elseBody.render(st)
}

// forNode is {% for x in xs %} ... {% empty %} ... {% endfor %}, with the
// standard forloop context variables.
type forNode struct {
	vars     []string // one var, or two for key,value unpacking
	iterable expr
	reversed bool
	body     nodeList
	empty    nodeList
}

// forloop is the {{ forloop }} variable of one running loop, updated in
// place each iteration. Templates reach its fields through resolveAttr.
type forloop struct {
	counter0, total int
	parent          any // the enclosing loop's forloop, if any
}

func (l *forloop) attr(name string) any {
	switch name {
	case "counter":
		return l.counter0 + 1
	case "counter0":
		return l.counter0
	case "revcounter":
		return l.total - l.counter0
	case "first":
		return l.counter0 == 0
	case "last":
		return l.counter0 == l.total-1
	case "parentloop":
		return l.parent
	}
	return nil
}

// String prints a forloop the way fmt prints the equivalent map.
func (l *forloop) String() string {
	return fmt.Sprintf("map[counter:%d counter0:%d first:%t last:%t parentloop:%v revcounter:%d]",
		l.counter0+1, l.counter0, l.counter0 == 0, l.counter0 == l.total-1, l.parent, l.total-l.counter0)
}

// items is the sequence a {% for %} walks. The common slice shapes are
// ranged in place; anything else is collected into anys.
type items struct {
	anys []any
	maps []map[string]any
	strs []string
}

func (s items) len() int { return len(s.anys) + len(s.maps) + len(s.strs) }

func (s items) at(i int) any {
	switch {
	case s.anys != nil:
		return s.anys[i]
	case s.maps != nil:
		return s.maps[i]
	default:
		return s.strs[i]
	}
}

func collect(v any) (items, error) {
	switch t := v.(type) {
	case []any:
		return items{anys: t}, nil
	case []map[string]any:
		return items{maps: t}, nil
	case []string:
		return items{strs: t}, nil
	}
	var out []any
	err := iterate(v, func(_ int, e any) error {
		out = append(out, e)
		return nil
	})
	return items{anys: out}, err
}

func (n forNode) render(st *renderState) error {
	src, err := n.iterable.eval(&st.ctx)
	if err != nil {
		return err
	}
	seq, err := collect(src)
	if err != nil {
		return err
	}
	total := seq.len()
	if total == 0 {
		return n.empty.render(st)
	}
	ctx := &st.ctx
	parent, _ := ctx.Lookup("forloop")
	if st.loopDepth == len(st.loops) {
		st.loops = append(st.loops, new(forloop))
	}
	loop := st.loops[st.loopDepth]
	st.loopDepth++
	*loop = forloop{total: total, parent: parent}

	ctx.Push()
	slot := ctx.bind(n.vars[0], nil)
	if len(n.vars) == 2 {
		ctx.bind(n.vars[1], nil)
	}
	// Bound last so it shadows a loop variable named forloop.
	ctx.bind("forloop", loop)
	for i := 0; i < total; i++ {
		j := i
		if n.reversed {
			j = total - 1 - i
		}
		item := seq.at(j)
		if len(n.vars) == 2 {
			// Unpack {key,value} pairs (map iteration).
			ctx.binds[slot].value = resolveAttr(item, "key")
			ctx.binds[slot+1].value = resolveAttr(item, "value")
		} else {
			ctx.binds[slot].value = item
		}
		loop.counter0 = i
		if err := n.body.render(st); err != nil {
			return err
		}
	}
	ctx.Pop()
	loop.parent = nil
	st.loopDepth--
	return nil
}

// withNode is {% with name=expr %} or {% with expr as name %}.
type withNode struct {
	name string
	val  expr
	body nodeList
}

func (n withNode) render(st *renderState) error {
	v, err := n.val.eval(&st.ctx)
	if err != nil {
		return err
	}
	st.ctx.Push()
	st.ctx.bind(n.name, v)
	if err := n.body.render(st); err != nil {
		return err
	}
	st.ctx.Pop()
	return nil
}

// includeNode is {% include "name" %}; the name may be an expression.
type includeNode struct {
	name expr
}

func (n includeNode) render(st *renderState) error {
	v, err := n.name.eval(&st.ctx)
	if err != nil {
		return err
	}
	name := Stringify(v)
	tmpl, err := st.set.Get(name)
	if err != nil {
		return fmt.Errorf("include: %w", err)
	}
	if st.depth >= maxRenderDepth {
		return fmt.Errorf("template: include depth exceeds %d (cycle?)", maxRenderDepth)
	}
	base, top, depth := st.base, st.n, st.depth
	st.base, st.depth = top, depth+1
	if err := tmpl.renderInto(st); err != nil {
		return err
	}
	st.base, st.n, st.depth = base, top, depth
	return nil
}

// blockNode is {% block name %}...{% endblock %}. With inheritance the
// most-derived template's override wins.
type blockNode struct {
	name string
	body nodeList
}

func (n blockNode) render(st *renderState) error {
	for _, ov := range st.overrides[st.base:st.n] {
		if body, ok := ov[n.name]; ok {
			return body.render(st)
		}
	}
	return n.body.render(st)
}
