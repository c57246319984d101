package backend

import "testing"

// TestTableStablePages pins Table's contract: elements start zero, a
// pointer from At stays valid while later IDs grow the table, and only the
// pages of used IDs are allocated.
func TestTableStablePages(t *testing.T) {
	var tab Table[int]
	p := tab.At(3)
	if *p != 0 {
		t.Fatalf("new element = %d, want 0", *p)
	}
	*p = 7
	*tab.At(10 * tablePage) = 9
	if p != tab.At(3) || *tab.At(3) != 7 || *tab.At(10 * tablePage) != 9 {
		t.Fatal("an element moved or lost its value when the table grew")
	}
	allocated := 0
	for _, pg := range tab.pages {
		if pg != nil {
			allocated++
		}
	}
	if allocated != 2 {
		t.Errorf("%d pages allocated for IDs in 2 pages", allocated)
	}
}
