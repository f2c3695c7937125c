// Command doccheck enforces the godoc contract on selected packages: every
// exported top-level symbol (function, method, type, and const/var
// declaration) must carry a doc comment. It is the CI teeth behind the
// documentation doctrine of docs/ARCHITECTURE.md — conventions like the
// flip-cache tail-only invariant and the BatchEvaluator bitwise guarantee
// live in doc comments, so an undocumented export is a broken contract,
// not a style nit. An argument ending in .md is a Markdown file instead:
// every relative link in it must resolve to an existing path.
//
//	go run ./cmd/doccheck ./internal/nn ./internal/tensor ./internal/dist README.md
//
// Exits non-zero listing every undocumented exported symbol and every dead
// link. Test files are ignored.
package main

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strings"
)

func main() {
	if len(os.Args) < 2 {
		fmt.Fprintln(os.Stderr, "usage: doccheck <package-dir|file.md> [...]")
		os.Exit(2)
	}
	var problems []string
	for _, arg := range os.Args[1:] {
		check := checkDir
		if strings.HasSuffix(arg, ".md") {
			check = checkLinks
		}
		m, err := check(arg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "doccheck: %v\n", err)
			os.Exit(2)
		}
		problems = append(problems, m...)
	}
	if len(problems) > 0 {
		for _, m := range problems {
			fmt.Println(m)
		}
		fmt.Fprintf(os.Stderr, "doccheck: %d problem(s)\n", len(problems))
		os.Exit(1)
	}
}

// checkDir parses every non-test Go file in dir and returns one line per
// undocumented exported declaration.
func checkDir(dir string) ([]string, error) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, dir, func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.ParseComments)
	if err != nil {
		return nil, err
	}
	var out []string
	flag := func(pos token.Pos, kind, name string) {
		p := fset.Position(pos)
		out = append(out, fmt.Sprintf("%s:%d: exported %s %s has no doc comment",
			filepath.ToSlash(p.Filename), p.Line, kind, name))
	}
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					if d.Name.IsExported() && d.Doc == nil && receiverExported(d) {
						flag(d.Pos(), "function", d.Name.Name)
					}
				case *ast.GenDecl:
					checkGenDecl(d, flag)
				}
			}
		}
	}
	return out, nil
}

// linkTarget matches an inline Markdown link, [text](target#fragment),
// capturing the target without its fragment.
var linkTarget = regexp.MustCompile(`\]\(([^)\s#]*)[^)\s]*\)`)

// checkLinks returns one line per relative link in the Markdown file at path
// whose target, resolved against the file's directory, does not exist.
func checkLinks(path string) ([]string, error) {
	src, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var out []string
	for _, m := range linkTarget.FindAllSubmatchIndex(src, -1) {
		target := string(src[m[2]:m[3]])
		if target == "" || strings.Contains(target, ":") {
			continue // same-file anchor or URL
		}
		if _, err := os.Stat(filepath.Join(filepath.Dir(path), target)); err != nil {
			out = append(out, fmt.Sprintf("%s:%d: dead link %s", path, 1+bytes.Count(src[:m[0]], []byte("\n")), target))
		}
	}
	return out, nil
}

// receiverExported reports whether a method's receiver type is exported
// (methods on unexported types are internal API and exempt).
func receiverExported(d *ast.FuncDecl) bool {
	if d.Recv == nil || len(d.Recv.List) == 0 {
		return true
	}
	t := d.Recv.List[0].Type
	for {
		switch tt := t.(type) {
		case *ast.StarExpr:
			t = tt.X
		case *ast.IndexExpr:
			t = tt.X
		case *ast.Ident:
			return tt.IsExported()
		default:
			return true
		}
	}
}

// checkGenDecl flags undocumented exported type, const and var specs. A doc
// comment on the grouped declaration covers every spec inside it.
func checkGenDecl(d *ast.GenDecl, flag func(token.Pos, string, string)) {
	if d.Tok != token.TYPE && d.Tok != token.CONST && d.Tok != token.VAR {
		return
	}
	for _, spec := range d.Specs {
		switch s := spec.(type) {
		case *ast.TypeSpec:
			if s.Name.IsExported() && d.Doc == nil && s.Doc == nil && s.Comment == nil {
				flag(s.Pos(), "type", s.Name.Name)
			}
		case *ast.ValueSpec:
			for _, name := range s.Names {
				if name.IsExported() && d.Doc == nil && s.Doc == nil && s.Comment == nil {
					flag(name.Pos(), d.Tok.String(), name.Name)
				}
			}
		}
	}
}
