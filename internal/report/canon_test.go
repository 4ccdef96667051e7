package report

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
)

// TestCanonOrderIndependence pins the content-addressing contract: the
// encoded bytes (hence the run ID) depend only on the key/value set,
// never on insertion order.
func TestCanonOrderIndependence(t *testing.T) {
	var a, b Canon
	a.PutString("experiment", "E2")
	a.PutUint("seed", 7)
	a.PutBool("quick", true)
	a.PutFloat("fault.drop", 0.25)
	b.PutFloat("fault.drop", 0.25)
	b.PutBool("quick", true)
	b.PutUint("seed", 7)
	b.PutString("experiment", "E2")
	if !bytes.Equal(a.Encode(), b.Encode()) {
		t.Fatalf("encodings differ:\n%s\nvs\n%s", a.Encode(), b.Encode())
	}
	if a.Hash() != b.Hash() {
		t.Fatalf("hashes differ: %s vs %s", a.Hash(), b.Hash())
	}
	if len(a.Hash()) != 32 {
		t.Fatalf("hash length %d, want 32 hex digits", len(a.Hash()))
	}
}

// TestCanonFieldSensitivity pins that every field kind perturbs the
// hash: flipping any single value must change the run ID, or the store
// would serve one configuration's table for another.
func TestCanonFieldSensitivity(t *testing.T) {
	ref := canonWith("E2", 7, true, 2, 0.1, []int64{3, 4}).Hash()
	flips := []struct {
		name string
		c    func() *Canon
	}{
		{"experiment", func() *Canon { return canonWith("E3", 7, true, 2, 0.1, []int64{3, 4}) }},
		{"seed", func() *Canon { return canonWith("E2", 8, true, 2, 0.1, []int64{3, 4}) }},
		{"quick", func() *Canon { return canonWith("E2", 7, false, 2, 0.1, []int64{3, 4}) }},
		{"shards", func() *Canon { return canonWith("E2", 7, true, 4, 0.1, []int64{3, 4}) }},
		{"float", func() *Canon { return canonWith("E2", 7, true, 2, 0.2, []int64{3, 4}) }},
		{"ints", func() *Canon { return canonWith("E2", 7, true, 2, 0.1, []int64{3, 5}) }},
	}
	for _, f := range flips {
		if f.c().Hash() == ref {
			t.Errorf("flipping %s did not change the hash", f.name)
		}
	}
	if canonWith("E2", 7, true, 2, 0.1, []int64{3, 4}).Hash() != ref {
		t.Error("identical rebuild changed the hash")
	}
}

func canonWith(exp string, seed uint64, quick bool, shards int64, drop float64, params []int64) *Canon {
	var c Canon
	c.PutString("experiment", exp)
	c.PutUint("seed", seed)
	c.PutBool("quick", quick)
	c.PutInt("shards", shards)
	c.PutFloat("fault.drop", drop)
	c.PutInts("algorithm.params", params)
	return &c
}

// TestCanonRejectsMalformedKeys pins the key-hygiene panics: they guard
// the unambiguity of the key=value\n framing.
func TestCanonRejectsMalformedKeys(t *testing.T) {
	for name, put := range map[string]func(c *Canon){
		"empty key":   func(c *Canon) { c.PutString("", "x") },
		"equals key":  func(c *Canon) { c.PutString("a=b", "x") },
		"newline key": func(c *Canon) { c.PutString("a\nb", "x") },
		"newline val": func(c *Canon) { c.PutString("a", "x\ny") },
		"duplicate":   func(c *Canon) { c.PutString("a", "x"); c.PutString("a", "y") },
		"nan float":   func(c *Canon) { c.PutFloat("a", nan()) },
	} {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s accepted", name)
				}
			}()
			var c Canon
			put(&c)
		})
	}
}

func nan() float64 {
	var zero float64
	return zero / zero
}

// TestCanonEncodeShape pins the literal wire shape: versioned header,
// sorted keys, one pair per line — the format docs/OPERATIONS.md documents
// and operators may diff by hand in the store's canon.txt files.
func TestCanonEncodeShape(t *testing.T) {
	var c Canon
	c.PutString("b", "two")
	c.PutInt("a", 1)
	want := fmt.Sprintf("rlnc-canon/%d\na=1\nb=two\n", CanonVersion)
	if got := string(c.Encode()); got != want {
		t.Fatalf("encoding %q, want %q", got, want)
	}
	if !strings.HasPrefix(want, "rlnc-canon/") {
		t.Fatal("header missing")
	}
}
