package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func writeDoc(t *testing.T, dir, name, content string) string {
	t.Helper()
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestSlug(t *testing.T) {
	for heading, want := range map[string]string{
		"Quick start":             "quick-start",
		"The `rlnc serve` daemon": "the-rlnc-serve-daemon",
		"E1–E17 in one line":      "e1e17-in-one-line",
		"HTTP API":                "http-api",
	} {
		if got := slug(heading); got != want {
			t.Errorf("slug(%q) = %q, want %q", heading, got, want)
		}
	}
}

func TestCheckFile(t *testing.T) {
	dir := t.TempDir()
	writeDoc(t, dir, "other.md", "# Other Title\n\nbody\n")
	doc := writeDoc(t, dir, "doc.md", strings.Join([]string{
		"# Title",
		"",
		"Good: [other](other.md), [sec](other.md#other-title),",
		"[self](#title), [web](https://example.com/x).",
		"",
		"```",
		"[not a link](missing-in-fence.md)",
		"```",
		"",
		"Bad: [gone](missing.md), [noanchor](#nope),",
		"[badfrag](other.md#absent).",
		"",
	}, "\n"))
	problems, err := checkFile(doc)
	if err != nil {
		t.Fatal(err)
	}
	if len(problems) != 3 {
		t.Fatalf("found %d problems, want 3:\n%s", len(problems), strings.Join(problems, "\n"))
	}
	for i, want := range []string{"missing.md", "#nope", "#absent"} {
		if !strings.Contains(problems[i], want) {
			t.Errorf("problem %d %q does not mention %q", i, problems[i], want)
		}
	}
}

// TestCheckGoFile pins the Go-comment pass: markdown paths named in
// comments resolve upward to the module root, while string literals and
// web links are not checked.
func TestCheckGoFile(t *testing.T) {
	root := t.TempDir()
	writeDoc(t, root, "go.mod", "module fixture\n")
	if err := os.MkdirAll(filepath.Join(root, "docs"), 0o755); err != nil {
		t.Fatal(err)
	}
	writeDoc(t, root, "docs/GUIDE.md", "# Guide\n")
	pkg := filepath.Join(root, "internal", "pkg")
	if err := os.MkdirAll(pkg, 0o755); err != nil {
		t.Fatal(err)
	}
	writeDoc(t, pkg, "NOTES.md", "# Notes\n")
	src := writeDoc(t, pkg, "pkg.go", strings.Join([]string{
		"// Package pkg is described in docs/GUIDE.md and NOTES.md,",
		"// online at https://example.com/docs/REMOTE.md.",
		"package pkg",
		"",
		"/* See docs/GONE.md",
		"   and MISSING.md. */",
		"var note = \"table bytes may cite DESIGN.md\" // but not LOST.md",
		"",
	}, "\n"))
	problems, err := checkGoFile(src)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"pkg.go:5: comment names missing document docs/GONE.md",
		"pkg.go:6: comment names missing document MISSING.md",
		"pkg.go:7: comment names missing document LOST.md"}
	if len(problems) != len(want) {
		t.Fatalf("found %d problems, want %d:\n%s", len(problems), len(want), strings.Join(problems, "\n"))
	}
	for i, w := range want {
		if !strings.HasSuffix(problems[i], w) {
			t.Errorf("problem %d = %q, want suffix %q", i, problems[i], w)
		}
	}
}
