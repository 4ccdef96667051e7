// Command docslint is a dependency-free markdown link checker for the
// repository's documentation set. For every markdown file named on the
// command line it verifies that
//
//   - relative link targets ([text](path) and [text](path#anchor))
//     exist on disk, resolved against the linking file's directory, and
//   - same-file anchors ([text](#anchor)) match a heading in that file,
//     using GitHub's anchor slug convention (lowercase, spaces to
//     dashes, punctuation dropped).
//
// For every Go file (.go) named on the command line it verifies that
// each markdown path named in a comment (docs/OPERATIONS.md, README.md)
// exists, resolved against the file's directory or any ancestor up to
// the module root — Go comments name documents by repository path.
// String literals are not checked: table notes are experiment output.
//
// http(s) and mailto links are skipped — CI must not depend on the
// network — and fenced code blocks are ignored so example snippets
// containing bracket syntax cannot produce false positives. Exit status
// 1 reports one or more broken links, with file:line positions.
//
// CI runs it over README.md, docs/ and the Go tree on every pull request:
//
//	go run ./cmd/docslint README.md docs/*.md $(git ls-files '*.go')
package main

import (
	"fmt"
	"go/scanner"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strings"
)

// linkRe matches inline markdown links [text](target). Images
// ![alt](target) match too via the optional bang — they are checked the
// same way.
var linkRe = regexp.MustCompile(`!?\[[^\]]*\]\(([^)\s]+)(?:\s+"[^"]*")?\)`)

// headingRe matches ATX headings.
var headingRe = regexp.MustCompile(`^#{1,6}\s+(.*?)\s*#*\s*$`)

// slug converts a heading to its GitHub anchor: lowercase, spaces and
// runs of dashes to single dashes at each gap, everything but letters,
// digits, dashes, and underscores dropped.
func slug(heading string) string {
	// Inline code and links render as their text before slugging.
	heading = strings.NewReplacer("`", "").Replace(heading)
	if m := linkRe.FindStringSubmatchIndex(heading); m != nil {
		heading = linkRe.ReplaceAllStringFunc(heading, func(s string) string {
			open := strings.IndexByte(s, '[')
			close := strings.IndexByte(s, ']')
			return s[open+1 : close]
		})
	}
	var b strings.Builder
	for _, r := range strings.ToLower(heading) {
		switch {
		case r >= 'a' && r <= 'z', r >= '0' && r <= '9', r == '_', r == '-':
			b.WriteRune(r)
		case r == ' ':
			b.WriteByte('-')
		}
	}
	return b.String()
}

// anchorsOf collects the heading anchors of one markdown file,
// de-duplicating repeats the way GitHub does (-1, -2 suffixes).
func anchorsOf(lines []string) map[string]bool {
	anchors := make(map[string]bool)
	inFence := false
	for _, line := range lines {
		if strings.HasPrefix(strings.TrimSpace(line), "```") {
			inFence = !inFence
			continue
		}
		if inFence {
			continue
		}
		m := headingRe.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		base := slug(m[1])
		name := base
		for i := 1; anchors[name]; i++ {
			name = fmt.Sprintf("%s-%d", base, i)
		}
		anchors[name] = true
	}
	return anchors
}

// checkFile lints one markdown file and returns its broken links as
// "file:line: message" strings.
func checkFile(path string) ([]string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	lines := strings.Split(string(data), "\n")
	anchors := anchorsOf(lines)
	var problems []string
	report := func(lineNo int, format string, args ...any) {
		problems = append(problems, fmt.Sprintf("%s:%d: %s", path, lineNo, fmt.Sprintf(format, args...)))
	}
	inFence := false
	for i, line := range lines {
		if strings.HasPrefix(strings.TrimSpace(line), "```") {
			inFence = !inFence
			continue
		}
		if inFence {
			continue
		}
		for _, m := range linkRe.FindAllStringSubmatch(line, -1) {
			target := m[1]
			switch {
			case strings.HasPrefix(target, "http://"),
				strings.HasPrefix(target, "https://"),
				strings.HasPrefix(target, "mailto:"):
				continue
			case strings.HasPrefix(target, "#"):
				if !anchors[strings.TrimPrefix(target, "#")] {
					report(i+1, "no heading for anchor %s", target)
				}
				continue
			}
			file, frag, hasFrag := strings.Cut(target, "#")
			resolved := filepath.Join(filepath.Dir(path), file)
			if _, err := os.Stat(resolved); err != nil {
				report(i+1, "broken link %s (resolved %s)", target, resolved)
				continue
			}
			if hasFrag && strings.HasSuffix(file, ".md") {
				data, err := os.ReadFile(resolved)
				if err != nil {
					report(i+1, "unreadable link target %s: %v", target, err)
					continue
				}
				if !anchorsOf(strings.Split(string(data), "\n"))[frag] {
					report(i+1, "no heading for anchor #%s in %s", frag, file)
				}
			}
		}
	}
	return problems, nil
}

// mdPathRe matches a markdown file path named in prose.
var mdPathRe = regexp.MustCompile(`[A-Za-z0-9_./-]*[A-Za-z0-9_-]\.md\b`)

// urlRe matches the web links blanked out of comments before mdPathRe
// runs.
var urlRe = regexp.MustCompile(`(?:https?|mailto):\S+`)

// checkGoFile lints the markdown paths named in one Go file's comments
// and returns the missing ones as "file:line: message" strings.
func checkGoFile(path string) ([]string, error) {
	src, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	dir, err := filepath.Abs(filepath.Dir(path))
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	var s scanner.Scanner
	s.Init(fset.AddFile(path, -1, len(src)), src, nil, scanner.ScanComments)
	var problems []string
	for {
		pos, tok, lit := s.Scan()
		if tok == token.EOF {
			break
		}
		if tok != token.COMMENT {
			continue
		}
		text := urlRe.ReplaceAllStringFunc(lit, func(u string) string { return strings.Repeat(" ", len(u)) })
		for _, loc := range mdPathRe.FindAllStringIndex(text, -1) {
			ref := text[loc[0]:loc[1]]
			if !existsUpward(dir, ref) {
				line := fset.Position(pos).Line + strings.Count(text[:loc[0]], "\n")
				problems = append(problems, fmt.Sprintf("%s:%d: comment names missing document %s", path, line, ref))
			}
		}
	}
	return problems, nil
}

// existsUpward reports whether ref exists relative to dir or one of its
// ancestors, stopping at the module root (the first directory holding
// go.mod).
func existsUpward(dir, ref string) bool {
	for {
		if _, err := os.Stat(filepath.Join(dir, ref)); err == nil {
			return true
		}
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return false
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return false
		}
		dir = parent
	}
}

func main() {
	if len(os.Args) < 2 {
		fmt.Fprintln(os.Stderr, "usage: docslint FILE.md|FILE.go ...")
		os.Exit(2)
	}
	broken := 0
	for _, path := range os.Args[1:] {
		check := checkFile
		if strings.HasSuffix(path, ".go") {
			check = checkGoFile
		}
		problems, err := check(path)
		if err != nil {
			fmt.Fprintf(os.Stderr, "docslint: %v\n", err)
			os.Exit(2)
		}
		for _, p := range problems {
			fmt.Println(p)
		}
		broken += len(problems)
	}
	if broken > 0 {
		fmt.Fprintf(os.Stderr, "docslint: %d broken link(s)\n", broken)
		os.Exit(1)
	}
}
