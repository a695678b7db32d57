// Calculator: N-version programming over genuinely diverse parsers.
//
// Three implementations of an infix calculator — a recursive-descent
// parser, a shunting-yard evaluator, and a left-to-right evaluator with a
// precedence bug — process the same expressions under a majority vote.
// The diverse designs give the vote real independence: the bug's failure
// region (precedence-sensitive expressions) is outvoted everywhere. Run
// it with:
//
//	go run ./examples/calculator [expr...]
package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"strconv"
	"strings"

	redundancy "github.com/softwarefaults/redundancy"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "calculator:", err)
		os.Exit(1)
	}
}

// The three "independently developed" versions, written against the same
// informal spec: integers, + - *, parentheses, usual precedence.
func versions() []redundancy.Variant[string, int64] {
	return []redundancy.Variant[string, int64]{
		redundancy.NewVariant("recursive-descent", evalRecursive),
		redundancy.NewVariant("shunting-yard", evalStack),
		redundancy.NewVariant("left-to-right-buggy", evalFlat),
	}
}

func run(args []string) error {
	exprs := args
	if len(exprs) == 0 {
		exprs = []string{"1+2*3", "(1+2)*3", "10-2*3", "2*3+4*5", "7"}
	}
	collector := redundancy.NewCollector()
	sys, err := redundancy.NewNVersion(versions(), redundancy.EqualOf[int64](),
		redundancy.WithObserver(collector))
	if err != nil {
		return err
	}
	ctx := context.Background()
	for _, expr := range exprs {
		voted, err := sys.Execute(ctx, expr)
		if err != nil {
			fmt.Printf("%-12s -> no consensus (%v)\n", expr, err)
			continue
		}
		// Show who disagreed, if anyone.
		var dissent []string
		for _, r := range sys.ExecuteAll(ctx, expr) {
			if r.Err != nil || r.Value != voted {
				dissent = append(dissent, fmt.Sprintf("%s said %d", r.Variant, r.Value))
			}
		}
		fmt.Printf("%-12s -> %d", expr, voted)
		if len(dissent) > 0 {
			fmt.Printf("   (outvoted: %s)", strings.Join(dissent, ", "))
		}
		fmt.Println()
	}
	s := collector.Executor("parallel-evaluation")
	fmt.Printf("\n%d expressions, %.0f version executions each, reliability %.2f\n",
		s.Requests, s.ExecutionsPerRequest(), s.Reliability())
	return nil
}

// ---- version 1: recursive descent ----

var errBad = errors.New("bad expression")

type parser struct {
	s   string
	pos int
}

func evalRecursive(_ context.Context, expr string) (int64, error) {
	p := &parser{s: strings.ReplaceAll(expr, " ", "")}
	v, err := p.sum()
	if err != nil {
		return 0, err
	}
	if p.pos != len(p.s) {
		return 0, fmt.Errorf("trailing input: %w", errBad)
	}
	return v, nil
}

func (p *parser) sum() (int64, error) {
	v, err := p.product()
	if err != nil {
		return 0, err
	}
	for p.pos < len(p.s) && (p.s[p.pos] == '+' || p.s[p.pos] == '-') {
		op := p.s[p.pos]
		p.pos++
		r, err := p.product()
		if err != nil {
			return 0, err
		}
		if op == '+' {
			v += r
		} else {
			v -= r
		}
	}
	return v, nil
}

func (p *parser) product() (int64, error) {
	v, err := p.atom()
	if err != nil {
		return 0, err
	}
	for p.pos < len(p.s) && p.s[p.pos] == '*' {
		p.pos++
		r, err := p.atom()
		if err != nil {
			return 0, err
		}
		v *= r
	}
	return v, nil
}

func (p *parser) atom() (int64, error) {
	if p.pos >= len(p.s) {
		return 0, fmt.Errorf("unexpected end: %w", errBad)
	}
	if p.s[p.pos] == '(' {
		p.pos++
		v, err := p.sum()
		if err != nil {
			return 0, err
		}
		if p.pos >= len(p.s) || p.s[p.pos] != ')' {
			return 0, fmt.Errorf("missing ')': %w", errBad)
		}
		p.pos++
		return v, nil
	}
	start := p.pos
	for p.pos < len(p.s) && p.s[p.pos] >= '0' && p.s[p.pos] <= '9' {
		p.pos++
	}
	if start == p.pos {
		return 0, fmt.Errorf("expected number at %d: %w", start, errBad)
	}
	return strconv.ParseInt(p.s[start:p.pos], 10, 64)
}

// ---- version 2: operator-precedence stack machine ----

func evalStack(_ context.Context, expr string) (int64, error) {
	expr = strings.ReplaceAll(expr, " ", "")
	var vals []int64
	var ops []byte
	prec := func(op byte) int {
		if op == '*' {
			return 2
		}
		return 1
	}
	apply := func() error {
		if len(vals) < 2 || len(ops) == 0 {
			return errBad
		}
		op := ops[len(ops)-1]
		ops = ops[:len(ops)-1]
		b, a := vals[len(vals)-1], vals[len(vals)-2]
		vals = vals[:len(vals)-2]
		switch op {
		case '+':
			vals = append(vals, a+b)
		case '-':
			vals = append(vals, a-b)
		default:
			vals = append(vals, a*b)
		}
		return nil
	}
	wantOperand := true
	for i := 0; i < len(expr); {
		c := expr[i]
		switch {
		case c >= '0' && c <= '9':
			if !wantOperand {
				return 0, errBad
			}
			j := i
			for j < len(expr) && expr[j] >= '0' && expr[j] <= '9' {
				j++
			}
			n, err := strconv.ParseInt(expr[i:j], 10, 64)
			if err != nil {
				return 0, err
			}
			vals = append(vals, n)
			i = j
			wantOperand = false
		case c == '+' || c == '-' || c == '*':
			if wantOperand {
				return 0, errBad
			}
			for len(ops) > 0 && ops[len(ops)-1] != '(' && prec(ops[len(ops)-1]) >= prec(c) {
				if err := apply(); err != nil {
					return 0, err
				}
			}
			ops = append(ops, c)
			i++
			wantOperand = true
		case c == '(':
			if !wantOperand {
				return 0, errBad
			}
			ops = append(ops, c)
			i++
		case c == ')':
			if wantOperand {
				return 0, errBad
			}
			for len(ops) > 0 && ops[len(ops)-1] != '(' {
				if err := apply(); err != nil {
					return 0, err
				}
			}
			if len(ops) == 0 {
				return 0, errBad
			}
			ops = ops[:len(ops)-1]
			i++
		default:
			return 0, errBad
		}
	}
	if wantOperand {
		return 0, errBad
	}
	for len(ops) > 0 {
		if ops[len(ops)-1] == '(' {
			return 0, errBad
		}
		if err := apply(); err != nil {
			return 0, err
		}
	}
	if len(vals) != 1 {
		return 0, errBad
	}
	return vals[0], nil
}

// ---- version 3: the buggy flat evaluator ----

// evalFlat evaluates strictly left to right: the development fault is the
// missing precedence handling, a deterministic bug whose failure region
// is any expression where a +/- precedes a *.
func evalFlat(_ context.Context, expr string) (int64, error) {
	expr = strings.ReplaceAll(expr, " ", "")
	pos := 0
	var eval func() (int64, error)
	eval = func() (int64, error) {
		var acc int64
		have := false
		pending := byte('+')
		for pos < len(expr) {
			c := expr[pos]
			switch {
			case c >= '0' && c <= '9':
				j := pos
				for j < len(expr) && expr[j] >= '0' && expr[j] <= '9' {
					j++
				}
				n, err := strconv.ParseInt(expr[pos:j], 10, 64)
				if err != nil {
					return 0, err
				}
				pos = j
				if !have {
					acc, have = n, true
					break
				}
				acc = combine(acc, n, pending)
			case c == '+' || c == '-' || c == '*':
				if !have {
					return 0, errBad
				}
				pending = c
				pos++
			case c == '(':
				pos++
				inner, err := eval()
				if err != nil {
					return 0, err
				}
				if pos >= len(expr) || expr[pos] != ')' {
					return 0, fmt.Errorf("missing ')': %w", errBad)
				}
				pos++
				if !have {
					acc, have = inner, true
					break
				}
				acc = combine(acc, inner, pending)
			case c == ')':
				if !have {
					return 0, errBad
				}
				return acc, nil
			default:
				return 0, errBad
			}
		}
		if !have {
			return 0, errBad
		}
		return acc, nil
	}
	v, err := eval()
	if err != nil {
		return 0, err
	}
	if pos != len(expr) {
		return 0, fmt.Errorf("trailing input: %w", errBad)
	}
	return v, nil
}

func combine(a, b int64, op byte) int64 {
	switch op {
	case '+':
		return a + b
	case '-':
		return a - b
	default:
		return a * b
	}
}
