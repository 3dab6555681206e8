package core

import "fmt"

// Account is a node-local token account: a (normally non-negative) integer
// balance that is credited once per proactive period and debited when
// reactive messages are sent.
//
// The zero value is an account with zero balance that forbids overspending,
// which matches the experimental setup of the paper (accounts start empty).
type Account struct {
	balance        int
	allowOverspend bool
}

// MakeAccount returns an account value holding initial tokens. If
// allowOverspend is true the balance may go negative (needed only by the pure
// reactive strategy). Accounts are values so that callers embed them in
// larger structures (the protocol state slab) instead of allocating one heap
// object per node.
func MakeAccount(initial int, allowOverspend bool) Account {
	return Account{balance: initial, allowOverspend: allowOverspend}
}

// Balance returns the current number of tokens (negative only when
// overspending is allowed).
func (a *Account) Balance() int { return a.balance }

// Deposit credits n ≥ 0 tokens.
func (a *Account) Deposit(n int) {
	if n < 0 {
		panic(fmt.Sprintf("core: Deposit(%d): negative amount", n))
	}
	a.balance += n
}

// SpendUpTo debits min(n, balance) tokens (or n when overspending is
// allowed) and returns the number actually spent. It never fails.
func (a *Account) SpendUpTo(n int) int {
	if n < 0 {
		panic(fmt.Sprintf("core: SpendUpTo(%d): negative amount", n))
	}
	if !a.allowOverspend && n > a.balance {
		n = a.balance
	}
	if n < 0 {
		n = 0
	}
	a.balance -= n
	return n
}
