package core

import (
	"testing"
	"testing/quick"
)

func TestAccountZeroValue(t *testing.T) {
	var a Account
	if a.Balance() != 0 {
		t.Errorf("zero-value balance = %d, want 0", a.Balance())
	}
	if a.allowOverspend {
		t.Error("zero-value account must forbid overspending")
	}
	if got := a.SpendUpTo(1); got != 0 {
		t.Errorf("SpendUpTo(1) on empty account = %d, want 0", got)
	}
	if a.Balance() != 0 {
		t.Errorf("an empty spend must not change the balance; got %d", a.Balance())
	}
}

func TestAccountDepositSpend(t *testing.T) {
	a := MakeAccount(3, false)
	a.Deposit(2)
	if a.Balance() != 5 {
		t.Fatalf("balance = %d, want 5", a.Balance())
	}
	if got := a.SpendUpTo(4); got != 4 {
		t.Fatalf("SpendUpTo(4) with balance 5 = %d, want 4", got)
	}
	if a.Balance() != 1 {
		t.Fatalf("balance = %d, want 1", a.Balance())
	}
}

func TestAccountOverspendAllowed(t *testing.T) {
	a := MakeAccount(0, true)
	if got := a.SpendUpTo(3); got != 3 {
		t.Fatalf("SpendUpTo(3) with overspend allowed = %d, want 3", got)
	}
	if a.Balance() != -3 {
		t.Fatalf("balance = %d, want -3", a.Balance())
	}
}

func TestAccountSpendUpTo(t *testing.T) {
	a := MakeAccount(2, false)
	if got := a.SpendUpTo(5); got != 2 {
		t.Errorf("SpendUpTo(5) = %d, want 2", got)
	}
	if a.Balance() != 0 {
		t.Errorf("balance = %d, want 0", a.Balance())
	}
	if got := a.SpendUpTo(1); got != 0 {
		t.Errorf("SpendUpTo(1) on empty = %d, want 0", got)
	}

	b := MakeAccount(1, true)
	if got := b.SpendUpTo(4); got != 4 {
		t.Errorf("SpendUpTo(4) with overspend = %d, want 4", got)
	}
	if b.Balance() != -3 {
		t.Errorf("balance = %d, want -3", b.Balance())
	}
}

func TestAccountNegativeAmountsPanic(t *testing.T) {
	assertPanics := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		f()
	}
	a := MakeAccount(0, false)
	assertPanics("Deposit(-1)", func() { a.Deposit(-1) })
	assertPanics("SpendUpTo(-1)", func() { a.SpendUpTo(-1) })
}

func TestQuickAccountNeverNegativeWithoutOverspend(t *testing.T) {
	f := func(ops []int16) bool {
		a := MakeAccount(0, false)
		for _, op := range ops {
			amount := int(op)
			if amount >= 0 {
				a.Deposit(amount % 100)
			} else {
				a.SpendUpTo((-amount) % 100)
			}
			if a.Balance() < 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestQuickAccountConservation(t *testing.T) {
	// Deposited minus successfully spent tokens equals the balance.
	f := func(ops []int16) bool {
		a := MakeAccount(0, false)
		deposited, spent := 0, 0
		for _, op := range ops {
			amount := int(op)
			if amount >= 0 {
				n := amount % 50
				a.Deposit(n)
				deposited += n
			} else {
				spent += a.SpendUpTo((-amount) % 50)
			}
		}
		return a.Balance() == deposited-spent
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}
