package nametree

import (
	"fmt"
	"reflect"
	"sort"
	"testing"

	"repro/internal/popgen"
)

// sortedPairs returns names sorted, each paired with its index in the
// input order: the Load input for the table that sequential Inserts of
// (names[i], i) build.
func sortedPairs(names []string) ([]string, []int) {
	idx := make([]int, len(names))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return names[idx[a]] < names[idx[b]] })
	keys := make([]string, len(names))
	for i, j := range idx {
		keys[i] = names[j]
	}
	return keys, idx
}

// insertBuilt is the reference tree: one Insert per name, in order.
func insertBuilt(names []string) *Tree[int] {
	tr := New[int]()
	for i, n := range names {
		tr.Insert(n, i)
	}
	return tr
}

// loadBuilt is the same table built by one Load.
func loadBuilt(names []string) *Tree[int] {
	tr := New[int]()
	tr.Load(sortedPairs(names))
	return tr
}

// TestLoadMatchesInsert pins that the bulk build is the same canonical
// tree as sequential Inserts: deeply equal roots (labels, values, child
// order) and equal Len/KeyBytes counters, over popgen populations and
// hand cases for the empty key, a key that is a prefix of another, and
// keys that split an edge.
func TestLoadMatchesInsert(t *testing.T) {
	cases := []struct {
		name  string
		names []string
	}{
		{"pop0", nil},
		{"empty-key", []string{""}},
		{"empty-and-others", []string{"b", "", "a"}},
		{"prefix-chain", []string{"abc", "ab", "a", "abcd"}},
		{"prefix-chain-sorted", []string{"a", "ab", "abc", "abcd"}},
		{"split-edge", []string{"storage.home", "storage.pub", "stor", "st.x", "s"}},
		{"fork", []string{"ab", "ac", "b", "bcd", "bce", "bc"}},
	}
	for _, n := range []int{1, 2, 1_000, 100_000} {
		cases = append(cases, struct {
			name  string
			names []string
		}{fmt.Sprintf("pop%d", n), popgen.NewPopulation(n, 0.99, 7).Names})
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			want, got := insertBuilt(c.names), loadBuilt(c.names)
			if !reflect.DeepEqual(got.root.Load(), want.root.Load()) {
				t.Fatal("Load-built tree differs from the Insert-built tree")
			}
			if got.Len() != want.Len() || got.KeyBytes() != want.KeyBytes() {
				t.Fatalf("Len/KeyBytes = %d/%d, Insert-built %d/%d",
					got.Len(), got.KeyBytes(), want.Len(), want.KeyBytes())
			}
		})
	}
}

// TestLoadReplacesContents pins that Load on a non-empty tree replaces
// the table: old keys are gone, the counters describe the new table
// alone, and the result equals a fresh build of the new keys.
func TestLoadReplacesContents(t *testing.T) {
	tr := insertBuilt([]string{"old", "older", "shared", "z"})
	next := []string{"shared", "new", "newer"}
	tr.Load(sortedPairs(next))
	if _, ok := tr.Get("old"); ok {
		t.Fatal("Load kept a key of the replaced table")
	}
	for i, k := range next {
		if v, ok := tr.Get(k); !ok || v != i {
			t.Fatalf("Get(%q) = (%d,%v), want (%d,true)", k, v, ok, i)
		}
	}
	want := insertBuilt(next)
	if !reflect.DeepEqual(tr.root.Load(), want.root.Load()) ||
		tr.Len() != want.Len() || tr.KeyBytes() != want.KeyBytes() {
		t.Fatal("Load over a non-empty tree differs from a fresh build")
	}
	tr.Load(nil, nil)
	if tr.Len() != 0 || tr.KeyBytes() != 0 {
		t.Fatalf("empty Load left Len/KeyBytes %d/%d", tr.Len(), tr.KeyBytes())
	}
	if _, ok := tr.Get("shared"); ok {
		t.Fatal("empty Load kept a key")
	}
}

// TestLoadPanics pins that unsorted, duplicate or mismatched input is
// refused before the tree is touched.
func TestLoadPanics(t *testing.T) {
	for _, c := range []struct {
		name string
		keys []string
		vals []int
	}{
		{"unsorted", []string{"b", "a"}, []int{0, 1}},
		{"duplicate", []string{"a", "b", "b"}, []int{0, 1, 2}},
		{"duplicate-empty", []string{"", ""}, []int{0, 1}},
		{"length-mismatch", []string{"a", "b"}, []int{0}},
	} {
		t.Run(c.name, func(t *testing.T) {
			tr := insertBuilt([]string{"keep"})
			func() {
				defer func() {
					if recover() == nil {
						t.Fatal("Load did not panic")
					}
				}()
				tr.Load(c.keys, c.vals)
			}()
			if v, ok := tr.Get("keep"); !ok || v != 0 || tr.Len() != 1 {
				t.Fatal("a refused Load touched the tree")
			}
		})
	}
}
