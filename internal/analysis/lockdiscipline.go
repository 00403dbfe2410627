package analysis

import (
	"fmt"
	"go/ast"
	"go/types"
)

// LockDiscipline checks the mutex conventions the concurrent engine
// state relies on (PRs 3-6):
//
//  1. Struct fields declared AFTER a sync.Mutex/RWMutex field (up to
//     the next mutex field) are guarded by it — the standard "mu
//     protects the fields below" layout cas.Dir, image.Store and
//     build.Cache all follow. A method that touches a guarded field
//     must lock that mutex somewhere in its body, or declare itself a
//     helper whose CALLER holds the lock by carrying the "Locked" name
//     suffix (applyLocked, gcBudgetLocked, ...).
//  2. A function that attempts the nonblocking flock exclusive
//     conversion (flockExclusiveNB) must also re-acquire the shared
//     lock on its failure paths: the kernel converts by
//     unlock-then-lock, so after a failed conversion the handle may
//     hold NOTHING, and returning without re-sharing would let a
//     concurrent GC rewrite the journal under a live handle — the
//     exact corruption PR 6's store lock exists to prevent.
var LockDiscipline = &Analyzer{
	Name: "lockdiscipline",
	Doc:  "methods touching mutex-guarded fields hold the guard (or are *Locked helpers); failed flock conversions re-share",
	Targets: []string{
		"repro/internal/cas",
		"repro/internal/build",
		"repro/internal/image",
		"repro/internal/daemon",
		"repro/internal/obs",
	},
}

func init() { LockDiscipline.Run = runLockDiscipline }

func runLockDiscipline(prog *Program) []Finding {
	var out []Finding
	for _, pkg := range LockDiscipline.scoped(prog) {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				out = append(out, checkGuardedAccess(prog, pkg, fd)...)
				out = append(out, checkReshare(prog, fd)...)
			}
		}
	}
	return out
}

// mutexRegions maps each guarded field name of st to the name of the
// mutex field that guards it: every field after a sync.Mutex/RWMutex
// belongs to that mutex until the next one starts a new region.
func mutexRegions(st *types.Struct) map[string]string {
	regions := map[string]string{}
	guard := ""
	for i := 0; i < st.NumFields(); i++ {
		f := st.Field(i)
		if isMutexType(f.Type()) {
			guard = f.Name()
			continue
		}
		if guard != "" {
			regions[f.Name()] = guard
		}
	}
	return regions
}

func isMutexType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj == nil || obj.Pkg() == nil || obj.Pkg().Path() != "sync" {
		return false
	}
	return obj.Name() == "Mutex" || obj.Name() == "RWMutex"
}

// checkGuardedAccess enforces rule 1 on one method.
func checkGuardedAccess(prog *Program, pkg *Package, fd *ast.FuncDecl) []Finding {
	named, st := recvStruct(pkg, fd)
	if named == nil {
		return nil
	}
	regions := mutexRegions(st)
	if len(regions) == 0 {
		return nil
	}
	recv := recvName(fd)
	if recv == "" || recv == "_" {
		return nil
	}
	if len(fd.Name.Name) > len("Locked") && fd.Name.Name[len(fd.Name.Name)-len("Locked"):] == "Locked" {
		return nil // caller-holds-the-lock helper, by naming convention
	}
	recvObj := pkg.Info.Defs[fd.Recv.List[0].Names[0]]

	// One finding per (method, guard): the first offending access.
	var out []Finding
	flagged := map[string]bool{}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		id, ok := sel.X.(*ast.Ident)
		if !ok || pkg.Info.Uses[id] != recvObj {
			return true
		}
		guard, guarded := regions[sel.Sel.Name]
		if !guarded || flagged[guard] {
			return true
		}
		// Is the selector actually the struct field (not a method)?
		if s, ok := pkg.Info.Selections[sel]; !ok || s.Kind() != types.FieldVal {
			return true
		}
		lock := recv + "." + guard + ".Lock"
		rlock := recv + "." + guard + ".RLock"
		if funcBodyCalls(fd.Body, lock, rlock) {
			flagged[guard] = true // holds the guard; nothing more to check for it
			return true
		}
		flagged[guard] = true
		out = append(out, Finding{LockDiscipline.Name, prog.Fset.Position(sel.Pos()),
			fmt.Sprintf("(%s).%s touches %s.%s, guarded by %s.%s, without locking it; lock, or rename the helper with a Locked suffix",
				named.Obj().Name(), fd.Name.Name, recv, sel.Sel.Name, recv, guard)})
		return true
	})
	return out
}

// checkReshare enforces rule 2 on one function.
func checkReshare(prog *Program, fd *ast.FuncDecl) []Finding {
	if fd.Body == nil {
		return nil
	}
	callsConvert := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if name, ok := renderChain(call.Fun); ok && name == "flockExclusiveNB" {
			callsConvert = true
		}
		return true
	})
	if !callsConvert {
		return nil
	}
	// Any re-sharing call in the body satisfies the rule: the flow-
	// sensitive "on every failure path" property is the tests' job;
	// the lint catches the forgot-it-entirely regression.
	reshares := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		name, ok := renderChain(call.Fun)
		if !ok {
			return true
		}
		base := name
		if i := lastDot(name); i >= 0 {
			base = name[i+1:]
		}
		if base == "reshare" || base == "shared" || base == "flockShared" {
			reshares = true
		}
		return true
	})
	if reshares {
		return nil
	}
	return []Finding{{LockDiscipline.Name, prog.Fset.Position(fd.Pos()),
		fmt.Sprintf("%s converts the flock to exclusive but never re-acquires shared; a failed conversion drops the lock entirely (kernel converts by unlock-then-lock)",
			fd.Name.Name)}}
}

func lastDot(s string) int {
	for i := len(s) - 1; i >= 0; i-- {
		if s[i] == '.' {
			return i
		}
	}
	return -1
}
