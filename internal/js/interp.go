package js

import (
	"fmt"
	"math"
	"strings"
)

// RuntimeError is a script execution failure (including thrown values).
type RuntimeError struct {
	Line, Col int
	Msg       string
	Thrown    *Value // non-nil for throw statements
}

func (e *RuntimeError) Error() string {
	return fmt.Sprintf("js: runtime error at %d:%d: %s", e.Line, e.Col, e.Msg)
}

// control-flow signals distinguished from real errors inside the evaluator.
type ctrl int

const (
	ctrlNone ctrl = iota
	ctrlReturn
	ctrlBreak
	ctrlContinue
)

// Interp evaluates programs. It meters execution: every AST node evaluation
// adds to Ops, which the browser layer converts into CPU cycles so that
// callback cost reflects the program actually run. ExtraOps lets host
// builtins (e.g. the synthetic compute kernel) charge additional cost.
type Interp struct {
	Globals *Env

	ops      int64
	extraOps int64
	opLimit  int64

	depth    int
	maxDepth int

	// vstack is the bytecode VM's shared value stack (see vm.go). Kept on
	// the interpreter so nested invocations reuse one backing array.
	vstack []Value
}

// DefaultOpLimit bounds a single Run/CallFunction to catch runaway scripts.
const DefaultOpLimit = 200_000_000

// NewInterp returns an interpreter with an empty global scope.
func NewInterp() *Interp {
	return &Interp{
		Globals:  NewEnv(nil),
		opLimit:  DefaultOpLimit,
		maxDepth: 512,
	}
}

// SetOpLimit bounds the number of interpreter operations per entry point.
func (in *Interp) SetOpLimit(n int64) { in.opLimit = n }

// Ops reports interpreter operations performed so far, including extra ops
// charged by host builtins.
func (in *Interp) Ops() int64 { return in.ops + in.extraOps }

// ResetOps zeroes the operation counters and returns the previous total.
// The browser calls this around each callback to attribute cost.
func (in *Interp) ResetOps() int64 {
	t := in.Ops()
	in.ops = 0
	in.extraOps = 0
	return t
}

// ChargeOps lets native builtins add explicit cost (e.g. a synthetic
// compute kernel or a big string operation).
func (in *Interp) ChargeOps(n int64) {
	if n > 0 {
		in.extraOps += n
	}
}

func (in *Interp) step(n Node) error {
	in.ops++
	if in.ops > in.opLimit {
		line, col := n.Pos()
		return &RuntimeError{Line: line, Col: col, Msg: "operation limit exceeded (runaway script?)"}
	}
	return nil
}

func rtErr(n Node, format string, args ...any) error {
	line, col := n.Pos()
	return &RuntimeError{Line: line, Col: col, Msg: fmt.Sprintf(format, args...)}
}

// Run executes a program in the global scope on the tree-walking
// interpreter, the reference the bytecode VM (RunCompiled) is checked
// against. Op accounting is identical on both.
func (in *Interp) Run(prog *Program) error {
	_, _, err := in.execBlock(prog.Body, in.Globals)
	return err
}

// RunSource parses source text and executes it in the global scope on the
// bytecode VM.
func (in *Interp) RunSource(src string) error {
	prog, err := Parse(src)
	if err != nil {
		return err
	}
	return in.RunCompiled(Compile(prog))
}

// CallFunction invokes a function value with the given this and arguments.
func (in *Interp) CallFunction(fn Value, this Value, args []Value) (Value, error) {
	o := fn.Object()
	if o == nil || o.Fn == nil {
		return Undefined, &RuntimeError{Msg: fmt.Sprintf("%s is not a function", fn.Text())}
	}
	return in.invoke(o.Fn, this, args, nil)
}

func (in *Interp) invoke(f *Function, this Value, args []Value, at Node) (Value, error) {
	if f.Native != nil {
		in.ops++ // native call overhead
		return f.Native(in, this, args)
	}
	in.depth++
	defer func() { in.depth-- }()
	if in.depth > in.maxDepth {
		if at == nil {
			at = pos{}
		}
		return Undefined, rtErr(at, "call stack overflow (%d frames)", in.maxDepth)
	}
	var env *Env
	if f.Code != nil {
		env = NewEnvCap(f.Env, f.Code.locals)
	} else {
		env = NewEnv(f.Env)
	}
	for i, p := range f.Params {
		if i < len(args) {
			env.Define(p, args[i])
		} else {
			env.Define(p, Undefined)
		}
	}
	if f.Code != nil {
		// Bytecode path: same frame setup, segment execution instead of a
		// tree walk. The arguments array is skipped when the body provably
		// never mentions it — a pure allocation saving, ops are unaffected.
		if f.Code.needArgs {
			env.Define("arguments", ObjVal(NewArray(args...)))
		}
		env.Define("this", this)
		v, c, err := in.runSeg(f.Code.body, f.Code.u, env)
		if err != nil {
			return Undefined, err
		}
		if c == ctrlReturn {
			return v, nil
		}
		return Undefined, nil
	}
	env.Define("arguments", ObjVal(NewArray(args...)))
	env.Define("this", this)
	v, c, err := in.execBlock(f.Body, env)
	if err != nil {
		return Undefined, err
	}
	if c == ctrlReturn {
		return v, nil
	}
	return Undefined, nil
}

func (in *Interp) execBlock(body []Stmt, env *Env) (Value, ctrl, error) {
	// Hoist function declarations so mutual recursion works.
	for _, s := range body {
		if fd, ok := s.(*FuncDecl); ok {
			fn := &Function{Name: fd.Name, Params: fd.Fn.Params, Body: fd.Fn.Body, Env: env}
			env.Define(fd.Name, ObjVal(&Object{Props: map[string]Value{}, Fn: fn}))
		}
	}
	for _, s := range body {
		v, c, err := in.exec(s, env)
		if err != nil {
			return Undefined, ctrlNone, err
		}
		if c != ctrlNone {
			return v, c, nil
		}
	}
	return Undefined, ctrlNone, nil
}

func (in *Interp) exec(s Stmt, env *Env) (Value, ctrl, error) {
	if err := in.step(s); err != nil {
		return Undefined, ctrlNone, err
	}
	switch st := s.(type) {
	case *VarDecl:
		v := Undefined
		if st.Init != nil {
			var err error
			v, err = in.eval(st.Init, env)
			if err != nil {
				return Undefined, ctrlNone, err
			}
		}
		env.Define(st.Name, v)

	case *VarDeclGroup:
		for _, d := range st.Decls {
			if _, _, err := in.exec(d, env); err != nil {
				return Undefined, ctrlNone, err
			}
		}

	case *FuncDecl:
		// Hoisted by execBlock; nothing to do at execution position.

	case *ExprStmt:
		if _, err := in.eval(st.X, env); err != nil {
			return Undefined, ctrlNone, err
		}

	case *IfStmt:
		cond, err := in.eval(st.Cond, env)
		if err != nil {
			return Undefined, ctrlNone, err
		}
		if cond.Truthy() {
			return in.execBlock(st.Then, NewEnv(env))
		}
		if st.Else != nil {
			return in.execBlock(st.Else, NewEnv(env))
		}

	case *WhileStmt:
		for {
			cond, err := in.eval(st.Cond, env)
			if err != nil {
				return Undefined, ctrlNone, err
			}
			if !cond.Truthy() {
				break
			}
			v, c, err := in.execBlock(st.Body, NewEnv(env))
			if err != nil {
				return Undefined, ctrlNone, err
			}
			if c == ctrlBreak {
				break
			}
			if c == ctrlReturn {
				return v, c, nil
			}
			if err := in.step(st); err != nil {
				return Undefined, ctrlNone, err
			}
		}

	case *DoWhileStmt:
		for {
			v, c, err := in.execBlock(st.Body, NewEnv(env))
			if err != nil {
				return Undefined, ctrlNone, err
			}
			if c == ctrlBreak {
				break
			}
			if c == ctrlReturn {
				return v, c, nil
			}
			cond, err := in.eval(st.Cond, env)
			if err != nil {
				return Undefined, ctrlNone, err
			}
			if !cond.Truthy() {
				break
			}
			if err := in.step(st); err != nil {
				return Undefined, ctrlNone, err
			}
		}

	case *ForStmt:
		scope := NewEnv(env)
		if st.Init != nil {
			if _, _, err := in.exec(st.Init, scope); err != nil {
				return Undefined, ctrlNone, err
			}
		}
		for {
			if st.Cond != nil {
				cond, err := in.eval(st.Cond, scope)
				if err != nil {
					return Undefined, ctrlNone, err
				}
				if !cond.Truthy() {
					break
				}
			}
			v, c, err := in.execBlock(st.Body, NewEnv(scope))
			if err != nil {
				return Undefined, ctrlNone, err
			}
			if c == ctrlBreak {
				break
			}
			if c == ctrlReturn {
				return v, c, nil
			}
			if st.Post != nil {
				if _, err := in.eval(st.Post, scope); err != nil {
					return Undefined, ctrlNone, err
				}
			}
			if err := in.step(st); err != nil {
				return Undefined, ctrlNone, err
			}
		}

	case *ReturnStmt:
		v := Undefined
		if st.X != nil {
			var err error
			v, err = in.eval(st.X, env)
			if err != nil {
				return Undefined, ctrlNone, err
			}
		}
		return v, ctrlReturn, nil

	case *BreakStmt:
		return Undefined, ctrlBreak, nil

	case *ContinueStmt:
		return Undefined, ctrlContinue, nil

	case *ThrowStmt:
		v, err := in.eval(st.X, env)
		if err != nil {
			return Undefined, ctrlNone, err
		}
		line, col := st.Pos()
		return Undefined, ctrlNone, &RuntimeError{Line: line, Col: col, Msg: "uncaught: " + v.Text(), Thrown: &v}

	case *BlockStmt:
		return in.execBlock(st.Body, NewEnv(env))

	case *SwitchStmt:
		return in.execSwitch(st, env)

	case *ForInStmt:
		x, err := in.eval(st.X, env)
		if err != nil {
			return Undefined, ctrlNone, err
		}
		o := x.Object()
		if o == nil {
			return Undefined, ctrlNone, nil // for-in over non-object: no-op
		}
		scope := NewEnv(env)
		scope.Define(st.Name, Undefined)
		for _, k := range o.Keys() {
			scope.Assign(st.Name, Str(k))
			v, c, err := in.execBlock(st.Body, NewEnv(scope))
			if err != nil {
				return Undefined, ctrlNone, err
			}
			if c == ctrlBreak {
				break
			}
			if c == ctrlReturn {
				return v, c, nil
			}
			if err := in.step(st); err != nil {
				return Undefined, ctrlNone, err
			}
		}

	case *TryStmt:
		return in.execTry(st, env)

	default:
		return Undefined, ctrlNone, rtErr(s, "unhandled statement %T", s)
	}
	return Undefined, ctrlNone, nil
}

// execSwitch implements switch with strict-equality matching and
// fall-through across case bodies.
func (in *Interp) execSwitch(st *SwitchStmt, env *Env) (Value, ctrl, error) {
	tag, err := in.eval(st.Tag, env)
	if err != nil {
		return Undefined, ctrlNone, err
	}
	scope := NewEnv(env)
	start := -1
	for i, c := range st.Cases {
		v, err := in.eval(c.Value, scope)
		if err != nil {
			return Undefined, ctrlNone, err
		}
		if tag.StrictEquals(v) {
			start = i
			break
		}
	}
	// Lay the clauses out in source order (the default interleaves among
	// the cases at its declared position), then run from the matched
	// clause with fall-through until break/return.
	type clause struct {
		body    []Stmt
		caseIdx int // -1 for the default clause
	}
	var clauses []clause
	for pos := 0; pos <= len(st.Cases); pos++ {
		if st.Default != nil && st.DefaultAt == pos {
			clauses = append(clauses, clause{st.Default, -1})
		}
		if pos < len(st.Cases) {
			clauses = append(clauses, clause{st.Cases[pos].Body, pos})
		}
	}
	// start == -1 selects the default clause (caseIdx -1); otherwise the
	// matched case.
	first := -1
	for i, cl := range clauses {
		if cl.caseIdx == start {
			first = i
			break
		}
	}
	if first < 0 {
		return Undefined, ctrlNone, nil
	}
	for _, cl := range clauses[first:] {
		v, c, err := in.execBlock(cl.body, scope)
		if err != nil || c == ctrlReturn || c == ctrlContinue {
			return v, c, err
		}
		if c == ctrlBreak {
			break
		}
	}
	return Undefined, ctrlNone, nil
}

// execTry implements try/catch/finally. Thrown script values are caught;
// genuine interpreter faults (undefined variable, not-a-function) are also
// catchable, matching JavaScript, but resource-limit errors (op limit,
// stack overflow) are not, so runaway scripts cannot shield themselves.
func (in *Interp) execTry(st *TryStmt, env *Env) (Value, ctrl, error) {
	v, c, err := in.execBlock(st.Body, NewEnv(env))
	if err != nil && st.Catch != nil && catchable(err) {
		scope := NewEnv(env)
		if st.CatchName != "" {
			scope.Define(st.CatchName, thrownValue(err))
		}
		v, c, err = in.execBlock(st.Catch, scope)
	}
	if st.Finally != nil {
		fv, fc, ferr := in.execBlock(st.Finally, NewEnv(env))
		// finally's own control flow overrides the try/catch outcome.
		if ferr != nil {
			return Undefined, ctrlNone, ferr
		}
		if fc != ctrlNone {
			return fv, fc, nil
		}
	}
	return v, c, err
}

func catchable(err error) bool {
	re, ok := err.(*RuntimeError)
	if !ok {
		return false
	}
	return !strings.Contains(re.Msg, "operation limit") && !strings.Contains(re.Msg, "stack overflow")
}

func thrownValue(err error) Value {
	if re, ok := err.(*RuntimeError); ok {
		if re.Thrown != nil {
			return *re.Thrown
		}
		return Str(re.Msg)
	}
	return Str(err.Error())
}

func (in *Interp) eval(e Expr, env *Env) (Value, error) {
	if err := in.step(e); err != nil {
		return Undefined, err
	}
	switch x := e.(type) {
	case *NumberLit:
		return Num(x.Value), nil
	case *StringLit:
		return Str(x.Value), nil
	case *BoolLit:
		return Boolean(x.Value), nil
	case *NullLit:
		return Null, nil
	case *UndefinedLit:
		return Undefined, nil
	case *ThisLit:
		if v, ok := env.Lookup("this"); ok {
			return v, nil
		}
		return Undefined, nil

	case *Ident:
		if v, ok := env.Lookup(x.Name); ok {
			return v, nil
		}
		return Undefined, rtErr(x, "%s is not defined", x.Name)

	case *ArrayLit:
		arr := NewArray()
		for _, el := range x.Elems {
			v, err := in.eval(el, env)
			if err != nil {
				return Undefined, err
			}
			arr.Elems = append(arr.Elems, v)
		}
		return ObjVal(arr), nil

	case *ObjectLit:
		o := NewObject()
		for i, k := range x.Keys {
			v, err := in.eval(x.Values[i], env)
			if err != nil {
				return Undefined, err
			}
			o.Set(k, v)
		}
		return ObjVal(o), nil

	case *FuncLit:
		fn := &Function{Name: x.Name, Params: x.Params, Body: x.Body, Env: env}
		fv := ObjVal(&Object{Props: map[string]Value{}, Fn: fn})
		if x.Name != "" {
			// Named function expressions can refer to themselves.
			scope := NewEnv(env)
			scope.Define(x.Name, fv)
			fn.Env = scope
		}
		return fv, nil

	case *Unary:
		return in.evalUnary(x, env)

	case *Postfix:
		old, err := in.eval(x.X, env)
		if err != nil {
			return Undefined, err
		}
		delta := 1.0
		if x.Op == "--" {
			delta = -1
		}
		if err := in.assignTo(x.X, Num(old.Number()+delta), env); err != nil {
			return Undefined, err
		}
		return Num(old.Number()), nil

	case *Binary:
		return in.evalBinary(x, env)

	case *Logical:
		l, err := in.eval(x.L, env)
		if err != nil {
			return Undefined, err
		}
		if x.Op == "&&" {
			if !l.Truthy() {
				return l, nil
			}
		} else {
			if l.Truthy() {
				return l, nil
			}
		}
		return in.eval(x.R, env)

	case *Cond:
		t, err := in.eval(x.Test, env)
		if err != nil {
			return Undefined, err
		}
		if t.Truthy() {
			return in.eval(x.Then, env)
		}
		return in.eval(x.Else, env)

	case *Assign:
		v, err := in.eval(x.Value, env)
		if err != nil {
			return Undefined, err
		}
		if x.Op != "=" {
			old, err := in.eval(x.Target, env)
			if err != nil {
				return Undefined, err
			}
			v, err = arith(x, x.Op[:1], old, v)
			if err != nil {
				return Undefined, err
			}
		}
		if err := in.assignTo(x.Target, v, env); err != nil {
			return Undefined, err
		}
		return v, nil

	case *Member:
		recv, err := in.eval(x.X, env)
		if err != nil {
			return Undefined, err
		}
		return in.getProp(x, recv, x.Name)

	case *Index:
		recv, err := in.eval(x.X, env)
		if err != nil {
			return Undefined, err
		}
		idx, err := in.eval(x.I, env)
		if err != nil {
			return Undefined, err
		}
		return in.getProp(x, recv, idx.Text())

	case *Call:
		return in.evalCall(x, env)

	case *New:
		fnv, err := in.eval(x.Fn, env)
		if err != nil {
			return Undefined, err
		}
		o := fnv.Object()
		if o == nil || o.Fn == nil {
			return Undefined, rtErr(x, "not a constructor")
		}
		args, err := in.evalArgs(x.Args, env)
		if err != nil {
			return Undefined, err
		}
		this := ObjVal(NewObject())
		ret, err := in.invoke(o.Fn, this, args, x)
		if err != nil {
			return Undefined, err
		}
		if ret.Kind() == KindObject {
			return ret, nil
		}
		return this, nil

	default:
		return Undefined, rtErr(e, "unhandled expression %T", e)
	}
}

func (in *Interp) evalUnary(x *Unary, env *Env) (Value, error) {
	switch x.Op {
	case "typeof":
		// typeof tolerates undefined variables.
		if id, ok := x.X.(*Ident); ok {
			if v, found := env.Lookup(id.Name); found {
				return Str(TypeOf(v)), nil
			}
			return Str("undefined"), nil
		}
		v, err := in.eval(x.X, env)
		if err != nil {
			return Undefined, err
		}
		return Str(TypeOf(v)), nil
	case "++", "--":
		old, err := in.eval(x.X, env)
		if err != nil {
			return Undefined, err
		}
		delta := 1.0
		if x.Op == "--" {
			delta = -1
		}
		nv := Num(old.Number() + delta)
		if err := in.assignTo(x.X, nv, env); err != nil {
			return Undefined, err
		}
		return nv, nil
	case "delete":
		switch tg := x.X.(type) {
		case *Member:
			recv, err := in.eval(tg.X, env)
			if err != nil {
				return Undefined, err
			}
			if o := recv.Object(); o != nil {
				o.Delete(tg.Name)
			}
			return True, nil
		case *Index:
			recv, err := in.eval(tg.X, env)
			if err != nil {
				return Undefined, err
			}
			idx, err := in.eval(tg.I, env)
			if err != nil {
				return Undefined, err
			}
			if o := recv.Object(); o != nil {
				o.Delete(idx.Text())
			}
			return True, nil
		default:
			return True, nil // deleting a variable is a sloppy-mode no-op
		}
	}
	v, err := in.eval(x.X, env)
	if err != nil {
		return Undefined, err
	}
	switch x.Op {
	case "-":
		return Num(-v.Number()), nil
	case "+":
		return Num(v.Number()), nil
	case "!":
		return Boolean(!v.Truthy()), nil
	case "~":
		return Num(float64(^toInt32(v.Number()))), nil
	default:
		return Undefined, rtErr(x, "unhandled unary operator %q", x.Op)
	}
}

func (in *Interp) evalBinary(x *Binary, env *Env) (Value, error) {
	l, err := in.eval(x.L, env)
	if err != nil {
		return Undefined, err
	}
	r, err := in.eval(x.R, env)
	if err != nil {
		return Undefined, err
	}
	switch x.Op {
	case "===":
		return Boolean(l.StrictEquals(r)), nil
	case "!==":
		return Boolean(!l.StrictEquals(r)), nil
	case "==":
		return Boolean(l.LooseEquals(r)), nil
	case "!=":
		return Boolean(!l.LooseEquals(r)), nil
	case "<", ">", "<=", ">=":
		if l.Kind() == KindString && r.Kind() == KindString {
			a, b := l.Text(), r.Text()
			switch x.Op {
			case "<":
				return Boolean(a < b), nil
			case ">":
				return Boolean(a > b), nil
			case "<=":
				return Boolean(a <= b), nil
			default:
				return Boolean(a >= b), nil
			}
		}
		a, b := l.Number(), r.Number()
		switch x.Op {
		case "<":
			return Boolean(a < b), nil
		case ">":
			return Boolean(a > b), nil
		case "<=":
			return Boolean(a <= b), nil
		default:
			return Boolean(a >= b), nil
		}
	default:
		return arith(x, x.Op, l, r)
	}
}

func arith(at Node, op string, l, r Value) (Value, error) {
	if op == "+" && (l.Kind() == KindString || r.Kind() == KindString) {
		return Str(l.Text() + r.Text()), nil
	}
	a, b := l.Number(), r.Number()
	switch op {
	case "+":
		return Num(a + b), nil
	case "-":
		return Num(a - b), nil
	case "*":
		return Num(a * b), nil
	case "/":
		return Num(a / b), nil
	case "%":
		return Num(math.Mod(a, b)), nil
	case "&":
		return Num(float64(toInt32(a) & toInt32(b))), nil
	case "|":
		return Num(float64(toInt32(a) | toInt32(b))), nil
	case "^":
		return Num(float64(toInt32(a) ^ toInt32(b))), nil
	case "<<":
		return Num(float64(toInt32(a) << (uint32(toInt32(b)) & 31))), nil
	case ">>":
		return Num(float64(toInt32(a) >> (uint32(toInt32(b)) & 31))), nil
	default:
		return Undefined, rtErr(at, "unhandled operator %q", op)
	}
}

// toInt32 applies JavaScript's ToInt32 conversion (modulo 2³², signed).
func toInt32(f float64) int32 {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return 0
	}
	return int32(uint32(int64(math.Trunc(f))))
}

func (in *Interp) assignTo(target Expr, v Value, env *Env) error {
	switch tg := target.(type) {
	case *Ident:
		env.Assign(tg.Name, v)
		return nil
	case *Member:
		recv, err := in.eval(tg.X, env)
		if err != nil {
			return err
		}
		line, col := tg.Pos()
		return in.storeProp(recv, tg.Name, v, line, col)
	case *Index:
		recv, err := in.eval(tg.X, env)
		if err != nil {
			return err
		}
		idx, err := in.eval(tg.I, env)
		if err != nil {
			return err
		}
		line, col := tg.Pos()
		return in.storeIndex(recv, idx, v, line, col)
	default:
		return rtErr(target, "invalid assignment target %T", target)
	}
}

// storeProp writes recv.name = v with script metering, pinning the error
// position. Shared by the tree-walking assignTo and the VM's store ops so
// both engines fail (and charge) identically.
func (in *Interp) storeProp(recv Value, name string, v Value, line, col int) error {
	o := recv.Object()
	if o == nil {
		return &RuntimeError{Line: line, Col: col, Msg: fmt.Sprintf("cannot set property %q of %s", name, recv.Kind())}
	}
	if err := o.SetMetered(in, name, v); err != nil {
		return positioned(err, line, col)
	}
	return nil
}

// storeIndex writes recv[idx] = v with script metering.
func (in *Interp) storeIndex(recv, idx, v Value, line, col int) error {
	o := recv.Object()
	if o == nil {
		return &RuntimeError{Line: line, Col: col, Msg: fmt.Sprintf("cannot set index of %s", recv.Kind())}
	}
	if err := o.SetMetered(in, idx.Text(), v); err != nil {
		return positioned(err, line, col)
	}
	return nil
}

// positioned fills in the source position of a RuntimeError raised by
// position-blind code (value-layer range checks).
func positioned(err error, line, col int) error {
	if re, ok := err.(*RuntimeError); ok && re.Line == 0 && re.Col == 0 {
		re.Line, re.Col = line, col
	}
	return err
}

func (in *Interp) evalArgs(args []Expr, env *Env) ([]Value, error) {
	out := make([]Value, len(args))
	for i, a := range args {
		v, err := in.eval(a, env)
		if err != nil {
			return nil, err
		}
		out[i] = v
	}
	return out, nil
}

func (in *Interp) evalCall(x *Call, env *Env) (Value, error) {
	var this Value
	var fnv Value
	var err error
	switch f := x.Fn.(type) {
	case *Member:
		this, err = in.eval(f.X, env)
		if err != nil {
			return Undefined, err
		}
		fnv, err = in.getProp(f, this, f.Name)
		if err != nil {
			return Undefined, err
		}
	case *Index:
		this, err = in.eval(f.X, env)
		if err != nil {
			return Undefined, err
		}
		idx, err2 := in.eval(f.I, env)
		if err2 != nil {
			return Undefined, err2
		}
		fnv, err = in.getProp(f, this, idx.Text())
		if err != nil {
			return Undefined, err
		}
	default:
		this = Undefined
		fnv, err = in.eval(x.Fn, env)
		if err != nil {
			return Undefined, err
		}
	}
	o := fnv.Object()
	if o == nil || o.Fn == nil {
		return Undefined, rtErr(x, "%s is not a function", describeCallee(x.Fn))
	}
	args, err := in.evalArgs(x.Args, env)
	if err != nil {
		return Undefined, err
	}
	return in.invoke(o.Fn, this, args, x)
}

func describeCallee(e Expr) string {
	switch f := e.(type) {
	case *Ident:
		return f.Name
	case *Member:
		return describeCallee(f.X) + "." + f.Name
	default:
		return "expression"
	}
}

// getProp reads a property, synthesizing built-in methods for strings and
// arrays on the fly.
func (in *Interp) getProp(at Node, recv Value, name string) (Value, error) {
	switch recv.Kind() {
	case KindObject:
		if m, ok := arrayMethod(recv.Object(), name); ok {
			return m, nil
		}
		return recv.Object().Get(name), nil
	case KindString:
		return stringProp(recv.Text(), name), nil
	case KindNumber:
		if name == "toFixed" {
			n := recv.Number()
			return NativeFunc("toFixed", func(in *Interp, this Value, args []Value) (Value, error) {
				digits := 0
				if len(args) > 0 {
					digits = int(args[0].Number())
				}
				return Str(fmt.Sprintf("%.*f", digits, n)), nil
			}), nil
		}
		return Undefined, nil
	case KindUndefined, KindNull:
		return Undefined, rtErr(at, "cannot read property %q of %s", name, recv.Kind())
	default:
		return Undefined, nil
	}
}
