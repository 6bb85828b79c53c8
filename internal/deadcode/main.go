// Command deadcode lists the functions no binary of this module links:
// every function declared in a non-test file of a non-main package
// that is missing from the symbol tables of the cmd/*, examples/* and
// perfbench binaries, built with inlining off so that an inlined callee
// keeps its symbol. A function no binary links is dead unless
// keepers.txt names it, one "<symbol> <reason>" per line. Run it from
// the module root:
//
//	go run ./internal/deadcode
//
// It exits 1 on an unlinked function that is not a keeper, and on a
// keeper that some binary links again or that no longer exists.
package main

import (
	"errors"
	"fmt"
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
)

const keeperFile = "internal/deadcode/keepers.txt"

var (
	// typeArgs matches an innermost bracketed type-argument list, and
	// closure the suffix that a closure, a go or defer wrapper or a
	// method value adds to the name of its enclosing function.
	typeArgs = regexp.MustCompile(`\[[^\[\]]*\]`)
	closure  = regexp.MustCompile(`(\.func\d+|\.gowrap\d+|\.deferwrap\d+|-fm)(\..*)?$`)
)

func main() {
	linked, err := linkedSymbols()
	check(err)
	declared, err := declaredFuncs()
	check(err)
	data, err := os.ReadFile(keeperFile)
	check(err)
	keepers := map[string]bool{}
	for i, line := range strings.Split(string(data), "\n") {
		sym, reason, _ := strings.Cut(strings.TrimSpace(line), " ")
		if sym != "" && !strings.HasPrefix(sym, "#") {
			if strings.TrimSpace(reason) == "" {
				check(fmt.Errorf("%s:%d: keeper %s gives no reason", keeperFile, i+1, sym))
			}
			keepers[sym] = true
		}
	}
	var problems []string
	for fn := range declared {
		if !linked[fn] && !keepers[fn] {
			problems = append(problems, "no binary links "+fn+", and "+keeperFile+" does not keep it")
		}
	}
	for fn := range keepers {
		if !declared[fn] {
			problems = append(problems, "keeper "+fn+" is not declared")
		} else if linked[fn] {
			problems = append(problems, "keeper "+fn+" is linked again")
		}
	}
	sort.Strings(problems)
	for _, p := range problems {
		fmt.Println(p)
	}
	if len(problems) > 0 {
		os.Exit(1)
	}
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "deadcode:", err)
		os.Exit(2)
	}
}

func command(dir, name string, args ...string) ([]byte, error) {
	cmd := exec.Command(name, args...)
	cmd.Dir, cmd.Stderr = dir, os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%s %s: %w", name, strings.Join(args, " "), err)
	}
	return out, nil
}

// linkedSymbols builds the binaries into a scratch directory and reads
// their text symbols of this module's packages, named as declaredFuncs
// names them.
func linkedSymbols() (map[string]bool, error) {
	bin, err := os.MkdirTemp("", "deadcode")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(bin)
	// perfbench is a module of its own, so it builds from its directory.
	for dir, pkgs := range map[string][]string{".": {"./cmd/...", "./examples/..."}, "perfbench": {"."}} {
		if _, err := command(dir, "go", append([]string{"build", "-gcflags=all=-l", "-o", bin + "/"}, pkgs...)...); err != nil {
			return nil, err
		}
	}
	bins, err := os.ReadDir(bin)
	if err != nil {
		return nil, err
	}
	linked := map[string]bool{}
	for _, b := range bins {
		out, err := command(".", "go", "tool", "nm", filepath.Join(bin, b.Name()))
		if err != nil {
			return nil, err
		}
		for _, line := range strings.Split(string(out), "\n") {
			_, name, ok := strings.Cut(line, " T ")
			if !ok {
				_, name, ok = strings.Cut(line, " t ")
			}
			if ok && (strings.HasPrefix(name, "repro.") || strings.HasPrefix(name, "repro/")) {
				linked[symbolFunc(name)] = true
			}
		}
	}
	return linked, nil
}

// symbolFunc names the declared function a text symbol belongs to:
// pkg.F for pkg.F[go.shape.int], pkg.F.func1.2 and pkg.F-fm alike.
func symbolFunc(sym string) string {
	return closure.ReplaceAllString(stripTypeArgs(sym), "")
}

// stripTypeArgs removes every bracketed type-argument list from name,
// nested ones included.
func stripTypeArgs(name string) string {
	for n := ""; n != name; {
		n, name = name, typeArgs.ReplaceAllString(name, "")
	}
	return name
}

// declaredFuncs names every function and method declared in a non-test
// file of a non-main package of the module, as go tool nm names it:
// pkg.Func, pkg.Type.Method or pkg.(*Type).Method.
func declaredFuncs() (map[string]bool, error) {
	declared := map[string]bool{}
	err := filepath.WalkDir(".", func(dir string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if name := d.Name(); dir != "." && (name == "testdata" || name == "perfbench" || strings.HasPrefix(name, ".")) {
			return filepath.SkipDir
		}
		pkg, err := build.ImportDir(dir, 0)
		if errors.As(err, new(*build.NoGoError)) || err == nil && pkg.Name == "main" {
			return nil
		} else if err != nil {
			return err
		}
		path := strings.TrimSuffix("repro/"+filepath.ToSlash(dir), "/.")
		for _, file := range pkg.GoFiles {
			f, err := parser.ParseFile(token.NewFileSet(), filepath.Join(dir, file), nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			for _, decl := range f.Decls {
				if fn, ok := decl.(*ast.FuncDecl); ok && (fn.Recv != nil || fn.Name.Name != "init") {
					declared[path+"."+funcName(fn)] = true
				}
			}
		}
		return nil
	})
	return declared, err
}

// funcName renders fn as nm names it within its package: F, T.M or
// (*T).M, with a generic receiver's type parameters dropped.
func funcName(fn *ast.FuncDecl) string {
	if fn.Recv == nil {
		return fn.Name.Name
	}
	recv := stripTypeArgs(types.ExprString(fn.Recv.List[0].Type))
	if strings.HasPrefix(recv, "*") {
		recv = "(" + recv + ")"
	}
	return recv + "." + fn.Name.Name
}
