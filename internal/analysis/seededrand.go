package analysis

import (
	"go/ast"
	"go/types"
)

// SeededRand forbids ambient nondeterminism in //swat:deterministic
// packages: the global math/rand top-level functions (whose shared
// source is seeded from runtime entropy) and wall-clock reads
// (time.Now and friends). Deterministic packages must draw randomness
// from an injected, explicitly seeded *rand.Rand and obtain time from
// an injected clock — that is what makes netsim runs and experiment
// outputs replay byte-for-byte from a seed.
//
// Constructors (rand.New, rand.NewSource, rand.NewZipf) are allowed:
// they are exactly how an injected generator is built. Seeding one
// from the wall clock is still caught, because the time.Now call
// itself is flagged.
var SeededRand = &Analyzer{
	Name: "seededrand",
	Doc: "forbid global math/rand and wall-clock reads in //swat:deterministic packages; " +
		"randomness must come from an injected seeded *rand.Rand, time from an injected clock",
	Run: runSeededRand,
}

// seededRandAllowed lists the math/rand top-level functions that build
// injectable generators rather than draw from the global source.
var seededRandAllowed = map[string]bool{
	"New":        true,
	"NewSource":  true,
	"NewZipf":    true,
	"NewPCG":     true, // math/rand/v2
	"NewChaCha8": true, // math/rand/v2
}

// wallClockFuncs lists the time package functions that read the wall
// clock (Since and Until call Now internally).
var wallClockFuncs = map[string]bool{
	"Now":   true,
	"Since": true,
	"Until": true,
}

func runSeededRand(pass *Pass) error {
	if !pass.Deterministic() {
		return nil
	}
	for ident, obj := range pass.TypesInfo.Uses {
		fn, ok := obj.(*types.Func)
		if !ok || fn.Pkg() == nil {
			continue
		}
		if fn.Type().(*types.Signature).Recv() != nil {
			continue // methods (e.g. (*rand.Rand).Intn) are the sanctioned form
		}
		switch fn.Pkg().Path() {
		case "math/rand", "math/rand/v2":
			if !seededRandAllowed[fn.Name()] {
				pass.Reportf(ident.Pos(),
					"global math/rand.%s in deterministic package %s: draws from the runtime-seeded shared source; inject a seeded *rand.Rand instead",
					fn.Name(), pass.Pkg.Name())
			}
		case "time":
			if wallClockFuncs[fn.Name()] {
				pass.Reportf(ident.Pos(),
					"time.%s in deterministic package %s: wall-clock reads break seeded replay; inject a clock or take the instant as a parameter",
					fn.Name(), pass.Pkg.Name())
			}
		}
	}
	return nil
}

// identRootObj returns the object of the leftmost identifier of an
// expression chain like a.b[c].d, or nil.
func identRootObj(info *types.Info, e ast.Expr) types.Object {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return info.ObjectOf(x)
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		default:
			return nil
		}
	}
}
