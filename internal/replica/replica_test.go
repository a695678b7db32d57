package replica

import (
	"errors"
	"testing"
)

func newSystem(t *testing.T, n int) *System {
	t.Helper()
	s, err := NewSystem(n, 1<<16)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestBenignReadWrite(t *testing.T) {
	s := newSystem(t, 3)
	v, err := s.Execute(Request{Op: OpWrite, Addr: 0x100, Value: 42})
	if err != nil || v != 42 {
		t.Fatalf("write = (%d, %v)", v, err)
	}
	v, err = s.Execute(Request{Op: OpRead, Addr: 0x100})
	if err != nil || v != 42 {
		t.Errorf("read = (%d, %v), want (42, nil)", v, err)
	}
}

func TestBenignTrustedCodeExecutes(t *testing.T) {
	s := newSystem(t, 3)
	code := []Instruction{{Op: "mov"}, {Op: "add"}, {Op: "ret"}}
	v, err := s.Execute(Request{Op: OpExec, Code: code, Trusted: true})
	if err != nil || v != 3 {
		t.Errorf("exec = (%d, %v), want (3, nil)", v, err)
	}
}

func TestAbsoluteAddressAttackDetected(t *testing.T) {
	s := newSystem(t, 3)
	// Attacker hardcodes an address inside variant-1's partition.
	target := s.Process(0).Base() + 0x10
	_, err := s.Execute(Request{Op: OpWrite, Addr: target, Absolute: true, Value: 0xbad})
	if !errors.Is(err, ErrAttackDetected) {
		t.Errorf("err = %v, want ErrAttackDetected", err)
	}
}

func TestAbsoluteAddressOutsideAllPartitionsIsUnanimousTrap(t *testing.T) {
	s := newSystem(t, 3)
	// An address in no variant's partition traps everywhere: a plain
	// fault, not divergence.
	_, err := s.Execute(Request{Op: OpRead, Addr: 0x10, Absolute: true})
	if !errors.Is(err, ErrSegfault) {
		t.Errorf("err = %v, want unanimous ErrSegfault", err)
	}
	if errors.Is(err, ErrAttackDetected) {
		t.Error("unanimous trap must not be classified as divergence")
	}
}

func TestCodeInjectionDetected(t *testing.T) {
	s := newSystem(t, 3)
	// The attacker can stamp the payload with at most one variant's tag.
	payload := []Instruction{{Tag: s.Process(1).Tag(), Op: "shellcode"}}
	_, err := s.Execute(Request{Op: OpExec, Code: payload})
	if !errors.Is(err, ErrAttackDetected) {
		t.Errorf("err = %v, want ErrAttackDetected", err)
	}
}

func TestUntaggedInjectionTrapsEverywhere(t *testing.T) {
	s := newSystem(t, 3)
	payload := []Instruction{{Op: "shellcode"}} // zero tag matches nobody
	_, err := s.Execute(Request{Op: OpExec, Code: payload})
	if !errors.Is(err, ErrIllegalInstruction) {
		t.Errorf("err = %v, want unanimous ErrIllegalInstruction", err)
	}
	if errors.Is(err, ErrAttackDetected) {
		t.Error("unanimous trap must not be classified as divergence")
	}
}

func TestRelativeOverflowTrapsUniformly(t *testing.T) {
	s := newSystem(t, 2)
	_, err := s.Execute(Request{Op: OpRead, Addr: 1 << 20}) // beyond size
	if !errors.Is(err, ErrSegfault) {
		t.Errorf("err = %v, want ErrSegfault", err)
	}
	if errors.Is(err, ErrAttackDetected) {
		t.Error("uniform out-of-bounds should not look like an attack")
	}
}

func TestBenignWorkloadNoFalsePositives(t *testing.T) {
	s := newSystem(t, 5)
	for i := uint64(0); i < 500; i++ {
		if _, err := s.Execute(Request{Op: OpWrite, Addr: i % 1000, Value: i}); err != nil {
			t.Fatalf("benign write %d flagged: %v", i, err)
		}
		if _, err := s.Execute(Request{Op: OpRead, Addr: i % 1000}); err != nil {
			t.Fatalf("benign read %d flagged: %v", i, err)
		}
	}
	if _, err := s.Execute(Request{
		Op: OpExec, Trusted: true,
		Code: []Instruction{{Op: "a"}, {Op: "b"}},
	}); err != nil {
		t.Fatalf("benign exec flagged: %v", err)
	}
}

func TestAttacksAgainstEveryVariantDetected(t *testing.T) {
	s := newSystem(t, 4)
	for i := 0; i < s.N(); i++ {
		addr := s.Process(i).Base() + 4
		if _, err := s.Execute(Request{Op: OpWrite, Addr: addr, Absolute: true, Value: 1}); !errors.Is(err, ErrAttackDetected) {
			t.Errorf("attack targeting variant %d: err = %v", i, err)
		}
		payload := []Instruction{{Tag: s.Process(i).Tag(), Op: "inject"}}
		if _, err := s.Execute(Request{Op: OpExec, Code: payload}); !errors.Is(err, ErrAttackDetected) {
			t.Errorf("injection tagged for variant %d: err = %v", i, err)
		}
	}
}

func TestProcessConstructorValidation(t *testing.T) {
	if _, err := NewProcess("p", 0, 0, 1); err == nil {
		t.Error("zero size")
	}
	if _, err := NewProcess("p", 0, 10, 0); err == nil {
		t.Error("zero tag")
	}
}

func TestSystemConstructorValidation(t *testing.T) {
	if _, err := NewSystem(1, 100); err == nil {
		t.Error("n < 2")
	}
	if _, err := NewSystem(300, 100); err == nil {
		t.Error("n > 255")
	}
}

func TestUnknownOp(t *testing.T) {
	p, err := NewProcess("p", 0, 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Handle(Request{Op: OpKind(99)}); err == nil {
		t.Error("unknown op accepted")
	}
}

func TestOpKindString(t *testing.T) {
	if OpRead.String() != "read" || OpWrite.String() != "write" ||
		OpExec.String() != "exec" || OpKind(0).String() != "unknown" {
		t.Error("OpKind.String incorrect")
	}
}

func TestPartitionsDisjoint(t *testing.T) {
	s := newSystem(t, 5)
	for i := 0; i < s.N(); i++ {
		for j := i + 1; j < s.N(); j++ {
			bi, bj := s.Process(i).Base(), s.Process(j).Base()
			if bi == bj {
				t.Errorf("variants %d and %d share base %#x", i, j, bi)
			}
		}
	}
}

func TestProcessName(t *testing.T) {
	p, err := NewProcess("replica-x", 0, 16, 1)
	if err != nil {
		t.Fatal(err)
	}
	if p.Name() != "replica-x" {
		t.Errorf("Name = %q", p.Name())
	}
}

func TestSameErrClassGrouping(t *testing.T) {
	if sameErrClass(ErrSegfault, ErrIllegalInstruction) {
		t.Error("segfault and illegal instruction must differ")
	}
	if !sameErrClass(ErrSegfault, ErrSegfault) {
		t.Error("same sentinel must match")
	}
	if !sameErrClass(ErrIllegalInstruction, ErrIllegalInstruction) {
		t.Error("illegal-instruction pair must match")
	}
	if sameErrClass(ErrIllegalInstruction, ErrSegfault) {
		t.Error("ordering must not matter for sentinel mismatch")
	}
	// Non-sentinel errors group by identity or message.
	other1 := errors.New("weird")
	other2 := errors.New("weird")
	if !sameErrClass(other1, other2) {
		t.Error("identical messages should group")
	}
	if sameErrClass(errors.New("x"), errors.New("y")) {
		t.Error("distinct messages should differ")
	}
}
