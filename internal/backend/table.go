package backend

// Table is one process's state per dense ID of its set-up (a launch site, a
// kernel-call list), such as the Function each launch was last bound to.
// Storage comes in fixed pages allocated on first use, so a process that
// touches a few IDs of a large multi-model set-up allocates a few pages,
// and an element never moves: a pointer from At stays valid across a call
// that yields to another process growing the same table.
type Table[T any] struct {
	pages []*[tablePage]T
}

const tablePage = 32

// At returns the element at id, allocating its page on first use.
func (t *Table[T]) At(id int) *T {
	p := id / tablePage
	if p >= len(t.pages) {
		t.pages = append(t.pages, make([]*[tablePage]T, p+1-len(t.pages))...)
	}
	if t.pages[p] == nil {
		t.pages[p] = new([tablePage]T)
	}
	return &t.pages[p][id%tablePage]
}
