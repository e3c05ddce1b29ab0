// Command mdcheck is the markdown hygiene gate (`make md-check`): it
// scans the markdown files at the repository root — README, DESIGN,
// ROADMAP and the rest — and fails on links that point at files that do
// not exist or at heading anchors that are not defined ("dangling
// anchors"). DESIGN.md is fifteen cross-referenced sections now; a
// renamed heading or a moved file must break CI, not a reader.
//
// Checked: inline links [text](target) and images. Targets that are
// absolute URLs (scheme://, mailto:) are skipped, as are targets that
// resolve outside the repository root (e.g. the GitHub-web-relative CI
// badge path) — those cannot be verified from a checkout. Anchor targets
// (#fragment, file.md#fragment) are resolved against the GitHub heading
// slug of the target file's headings.
package main

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"unicode"
)

var (
	// linkRe matches [text](target) and ![alt](target); the target is cut
	// at the first space (titles like (file.md "title") are out of scope).
	linkRe = regexp.MustCompile(`!?\[[^\]]*\]\(([^)\s]+)[^)]*\)`)
	// headingRe matches ATX headings.
	headingRe = regexp.MustCompile(`^(#{1,6})\s+(.*?)\s*#*\s*$`)
	fenceRe   = regexp.MustCompile("^(```|~~~)")
)

// slugify reproduces GitHub's heading→anchor rule closely enough for
// this repo: lowercase, letters/digits/underscores kept, spaces and
// hyphens become hyphens, everything else dropped.
func slugify(h string) string {
	// Strip inline code/emphasis markers and link syntax from the heading
	// text before slugging.
	h = strings.NewReplacer("`", "", "*", "", "_", "_").Replace(h)
	var b strings.Builder
	for _, r := range strings.ToLower(h) {
		switch {
		case unicode.IsLetter(r) || unicode.IsDigit(r) || r == '_':
			b.WriteRune(r)
		case r == ' ' || r == '-':
			b.WriteByte('-')
		}
	}
	return b.String()
}

// anchors returns the set of heading anchors defined in a markdown file,
// with GitHub's -1, -2 suffixing of duplicates.
func anchors(path string) (map[string]bool, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	out := map[string]bool{}
	seen := map[string]int{}
	inFence := false
	for _, line := range strings.Split(string(data), "\n") {
		if fenceRe.MatchString(strings.TrimSpace(line)) {
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
		s := slugify(m[2])
		if n := seen[s]; n > 0 {
			out[fmt.Sprintf("%s-%d", s, n)] = true
		} else {
			out[s] = true
		}
		seen[s]++
	}
	return out, nil
}

// links extracts link targets with their line numbers, skipping fenced
// code blocks (shell snippets with redirects would otherwise false-match).
func links(path string) ([][2]string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var out [][2]string
	inFence := false
	for i, line := range strings.Split(string(data), "\n") {
		if fenceRe.MatchString(strings.TrimSpace(line)) {
			inFence = !inFence
			continue
		}
		if inFence {
			continue
		}
		for _, m := range linkRe.FindAllStringSubmatch(line, -1) {
			out = append(out, [2]string{fmt.Sprintf("%d", i+1), m[1]})
		}
	}
	return out, nil
}

func main() {
	root := "."
	if len(os.Args) > 1 {
		root = os.Args[1]
	}
	rootAbs, err := filepath.Abs(root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mdcheck:", err)
		os.Exit(2)
	}

	files, _ := filepath.Glob(filepath.Join(rootAbs, "*.md"))

	bad := 0
	report := func(file, line, target, why string) {
		rel, _ := filepath.Rel(rootAbs, file)
		fmt.Fprintf(os.Stderr, "mdcheck: %s:%s: %s: %s\n", rel, line, target, why)
		bad++
	}
	anchorCache := map[string]map[string]bool{}
	getAnchors := func(p string) (map[string]bool, error) {
		if a, ok := anchorCache[p]; ok {
			return a, nil
		}
		a, err := anchors(p)
		if err == nil {
			anchorCache[p] = a
		}
		return a, err
	}

	for _, f := range files {
		ls, err := links(f)
		if err != nil {
			fmt.Fprintln(os.Stderr, "mdcheck:", err)
			os.Exit(2)
		}
		for _, lt := range ls {
			line, target := lt[0], lt[1]
			if strings.Contains(target, "://") || strings.HasPrefix(target, "mailto:") {
				continue
			}
			file, frag, _ := strings.Cut(target, "#")
			dest := f
			if file != "" {
				dest = filepath.Join(filepath.Dir(f), file)
				// Targets escaping the repo root (the CI badge's
				// GitHub-web-relative path) cannot be verified here.
				if rel, err := filepath.Rel(rootAbs, dest); err != nil || strings.HasPrefix(rel, "..") {
					continue
				}
				if _, err := os.Stat(dest); err != nil {
					report(f, line, target, "links to a file that does not exist")
					continue
				}
			}
			if frag == "" {
				continue
			}
			if !strings.HasSuffix(dest, ".md") {
				continue // anchors are only checkable in markdown
			}
			a, err := getAnchors(dest)
			if err != nil {
				report(f, line, target, err.Error())
				continue
			}
			if !a[strings.ToLower(frag)] {
				report(f, line, target, "dangling anchor")
			}
		}
	}
	if bad > 0 {
		fmt.Fprintf(os.Stderr, "mdcheck: %d broken link(s)\n", bad)
		os.Exit(1)
	}
	fmt.Printf("mdcheck: %d markdown files clean\n", len(files))
}
