package template

import (
	"fmt"
	"sync"
)

// Set is a named collection of templates sharing one filter registry —
// the equivalent of Django's template loader. Sources are registered with
// Add and parsed lazily, once, on first use; parsed templates are cached
// and safe for concurrent rendering, which is exactly what the modified
// server's template-rendering pool requires.
type Set struct {
	mu      sync.RWMutex
	sources map[string]string
	cache   map[string]*Template
	filters *FilterSet
}

// NewSet returns an empty set with the built-in filters.
func NewSet() *Set {
	return &Set{
		sources: map[string]string{},
		cache:   map[string]*Template{},
		filters: NewFilterSet(),
	}
}

// Filters exposes the set's filter registry for custom registrations.
// Register custom filters before the first Get/Render; parsed templates
// are cached with the filters resolved.
func (s *Set) Filters() *FilterSet { return s.filters }

// Add registers (or replaces) a template source and invalidates any
// cached parse of it.
func (s *Set) Add(name, source string) {
	if name == "" {
		panic("template: empty template name")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.sources[name] = source
	delete(s.cache, name)
}

// AddAll registers every entry of sources.
func (s *Set) AddAll(sources map[string]string) {
	for name, src := range sources {
		s.Add(name, src)
	}
}

// Names returns the registered template names (unsorted).
func (s *Set) Names() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	names := make([]string, 0, len(s.sources))
	for n := range s.sources {
		names = append(names, n)
	}
	return names
}

// Get returns the parsed template for name, parsing and caching it on
// first use.
func (s *Set) Get(name string) (*Template, error) {
	s.mu.RLock()
	t, ok := s.cache[name]
	s.mu.RUnlock()
	if ok {
		return t, nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if t, ok := s.cache[name]; ok {
		return t, nil
	}
	src, ok := s.sources[name]
	if !ok {
		return nil, fmt.Errorf("template: %q not found", name)
	}
	t, err := parse(name, src, s.filters)
	if err != nil {
		return nil, err
	}
	t.set = s
	s.cache[name] = t
	return t, nil
}

// Render parses (cached) and renders the named template with data. This
// is the call the paper's rendering threads perform:
// get_template(name).render(Context(data)).
func (s *Set) Render(name string, data map[string]any) (string, error) {
	t, err := s.Get(name)
	if err != nil {
		return "", err
	}
	return t.Render(data)
}

// AppendRender renders the named template with data and appends the
// output to dst. On error dst is returned unchanged.
func (s *Set) AppendRender(dst []byte, name string, data map[string]any) ([]byte, error) {
	t, err := s.Get(name)
	if err != nil {
		return dst, err
	}
	st, err := t.render(data)
	defer putState(st)
	if err != nil {
		return dst, err
	}
	return append(dst, st.out...), nil
}

// Render renders the template with data, resolving {% extends %} chains
// and {% include %} references through the owning set.
func (t *Template) Render(data map[string]any) (string, error) {
	st, err := t.render(data)
	defer putState(st)
	if err != nil {
		return "", err
	}
	return string(st.out), nil
}

// statePool recycles render states: their Context binding stack,
// forloops and output buffer survive from one render to the next, so a
// steady-state render allocates only what its filters and values need.
var statePool = sync.Pool{New: func() any { return new(renderState) }}

// maxPooledOutput bounds the output buffer a pooled state keeps, so one
// huge page does not pin its buffer for the life of the pool.
const maxPooledOutput = 64 << 10

// render runs t on a pooled state; the caller copies st.out and returns
// the state with putState.
func (t *Template) render(data map[string]any) (*renderState, error) {
	st := statePool.Get().(*renderState)
	st.set = t.set
	st.ctx.reset(data)
	return st, t.renderInto(st)
}

func putState(st *renderState) {
	st.ctx.reset(nil)
	clear(st.overrides[:])
	for _, l := range st.loops {
		l.parent = nil
	}
	st.set = nil
	st.base, st.n, st.depth, st.loopDepth = 0, 0, 0, 0
	if cap(st.out) > maxPooledOutput {
		st.out = nil
	}
	st.out = st.out[:0]
	statePool.Put(st)
}

// renderInto walks the inheritance chain: each {% extends %} pushes the
// child's blocks as overrides and delegates rendering to the parent.
func (t *Template) renderInto(st *renderState) error {
	cur := t
	for cur.extends != "" {
		if st.depth >= maxRenderDepth {
			return fmt.Errorf("template: extends depth exceeds %d (cycle?)", maxRenderDepth)
		}
		st.depth++
		st.overrides[st.n] = cur.blocks
		st.n++
		parent, err := st.set.Get(cur.extends)
		if err != nil {
			return fmt.Errorf("extends: %w", err)
		}
		cur = parent
	}
	return cur.nodes.render(st)
}
