//! World state: accounts, balances, contract code and storage.
//!
//! Every IoT provider executing a block applies the same record sequence to
//! the same prior state, so deterministic state transition here is what
//! makes "each detection result … reliable and correct" (§V-C) checkable by
//! all parties. A change journal gives O(changes) atomic rollback for
//! failed calls.

use crate::error::VmError;
use smartcrowd_chain::codec::Encoder;
use smartcrowd_chain::Ether;
use smartcrowd_crypto::keccak::keccak256;
use smartcrowd_crypto::{Address, DigestMap, U256};
use std::collections::HashMap;

/// One undo entry in the transaction journal.
#[derive(Debug, Clone)]
enum JournalEntry {
    /// Previous balance of an account.
    Balance(Address, Ether),
    /// Previous storage value of a slot (`None` = the slot was absent).
    Storage(Address, U256, Option<U256>),
}

/// One account: balance, nonce, and (for contracts) code plus storage.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Account {
    /// Spendable balance.
    pub balance: Ether,
    /// Deployment counter (contract address derivation).
    pub nonce: u64,
    /// Contract bytecode; empty for externally-owned accounts.
    pub code: Vec<u8>,
    /// Persistent word-addressed storage.
    pub storage: HashMap<U256, U256>,
}

impl Account {
    /// Whether this account holds contract code.
    pub(crate) fn is_contract(&self) -> bool {
        !self.code.is_empty()
    }
}

/// The global account state.
///
/// # Example
///
/// ```
/// use smartcrowd_vm::state::WorldState;
/// use smartcrowd_chain::Ether;
/// use smartcrowd_crypto::Address;
///
/// let mut state = WorldState::new();
/// let a = Address::from_label("a");
/// let b = Address::from_label("b");
/// state.credit(a, Ether::from_ether(3));
/// state.transfer(a, b, Ether::from_ether(1)).unwrap();
/// assert_eq!(state.balance(&b), Ether::from_ether(1));
/// ```
#[derive(Debug, Clone, Default)]
pub struct WorldState {
    accounts: DigestMap<Address, Account>,
    /// Undo log; non-empty `Some` while a transaction is open. Rollback is
    /// O(changes made), not O(state size) — the property that keeps
    /// contract calls constant-time as the chain's state grows.
    journal: Option<Vec<JournalEntry>>,
}

impl WorldState {
    /// An empty state.
    pub fn new() -> Self {
        Self::default()
    }

    /// Immutable account lookup.
    pub fn account(&self, addr: &Address) -> Option<&Account> {
        self.accounts.get(addr)
    }

    /// Mutable account access, creating an empty account on demand.
    pub fn account_mut(&mut self, addr: Address) -> &mut Account {
        self.accounts.entry(addr).or_default()
    }

    /// The balance of an account (zero if absent).
    pub fn balance(&self, addr: &Address) -> Ether {
        self.accounts
            .get(addr)
            .map(|a| a.balance)
            .unwrap_or(Ether::ZERO)
    }

    /// Mints currency into an account (genesis allocation / block rewards —
    /// the `χ·ν` mining income of Eq. 8).
    pub fn credit(&mut self, addr: Address, amount: Ether) {
        self.journal_balance(addr);
        self.account_mut(addr).balance += amount;
    }

    fn journal_balance(&mut self, addr: Address) {
        let prev = self.balance(&addr);
        if let Some(journal) = self.journal.as_mut() {
            journal.push(JournalEntry::Balance(addr, prev));
        }
    }

    /// Opens a transaction: subsequent balance/storage mutations are
    /// journaled and can be undone with [`WorldState::rollback`].
    ///
    /// # Panics
    ///
    /// Panics if a transaction is already open (no nesting).
    pub fn begin_transaction(&mut self) {
        assert!(
            self.journal.is_none(),
            "nested transactions are not supported"
        );
        self.journal = Some(Vec::new());
    }

    /// Commits the open transaction (drops the undo log).
    ///
    /// # Panics
    ///
    /// Panics if no transaction is open.
    pub fn commit(&mut self) {
        assert!(self.journal.take().is_some(), "no open transaction");
    }

    /// Rolls the open transaction back, restoring every touched balance
    /// and storage slot.
    ///
    /// # Panics
    ///
    /// Panics if no transaction is open.
    pub fn rollback(&mut self) {
        let Some(journal) = self.journal.take() else {
            panic!("no open transaction");
        };
        for entry in journal.into_iter().rev() {
            match entry {
                JournalEntry::Balance(addr, prev) => {
                    self.account_mut(addr).balance = prev;
                }
                JournalEntry::Storage(addr, key, prev) => {
                    let account = self.account_mut(addr);
                    match prev {
                        Some(v) => {
                            account.storage.insert(key, v);
                        }
                        None => {
                            account.storage.remove(&key);
                        }
                    }
                }
            }
        }
    }

    /// Burns currency from an account.
    ///
    /// # Errors
    ///
    /// Returns [`VmError::InsufficientCallerFunds`] when the balance is too
    /// low.
    pub fn debit(&mut self, addr: Address, amount: Ether) -> Result<(), VmError> {
        let new_balance = self
            .balance(&addr)
            .checked_sub(amount)
            .ok_or(VmError::InsufficientCallerFunds)?;
        self.journal_balance(addr);
        self.account_mut(addr).balance = new_balance;
        Ok(())
    }

    /// Moves value between accounts.
    ///
    /// # Errors
    ///
    /// Returns [`VmError::InsufficientCallerFunds`] when `from` cannot pay.
    pub fn transfer(&mut self, from: Address, to: Address, amount: Ether) -> Result<(), VmError> {
        self.debit(from, amount)?;
        self.credit(to, amount);
        Ok(())
    }

    /// Derives the address a deployment by `deployer` at `nonce` lands on
    /// (Keccak of deployer ‖ nonce, Ethereum-style).
    pub fn contract_address(deployer: &Address, nonce: u64) -> Address {
        let mut enc = Encoder::new();
        enc.put_array(deployer.as_bytes()).put_u64(nonce);
        let digest = keccak256(&enc.finish());
        let mut out = [0u8; 20];
        out.copy_from_slice(&digest[12..]);
        Address::from_bytes(out)
    }

    /// Deploys contract code from `deployer`, consuming one nonce.
    ///
    /// The code must pass the static verifier — this is the hard gate: no
    /// path deploys unverified code into the state (tests that need a
    /// contract with invalid code plant it via [`WorldState::account_mut`]).
    ///
    /// # Errors
    ///
    /// Returns [`VmError::AddressCollision`] if the derived address already
    /// holds code, or the verifier's rejection ([`VmError::Verify`],
    /// [`VmError::InvalidOpcode`], [`VmError::TruncatedImmediate`]).
    pub fn deploy_contract(
        &mut self,
        deployer: Address,
        code: Vec<u8>,
    ) -> Result<Address, VmError> {
        crate::verify::verify(&code)?;
        self.install_verified(deployer, code)
    }

    /// [`WorldState::deploy_contract`] for code the caller has just passed
    /// through [`crate::verify::verify`] itself ([`crate::Vm::deploy`], which
    /// must reject bad code before it prices the deployment).
    pub(crate) fn install_verified(
        &mut self,
        deployer: Address,
        code: Vec<u8>,
    ) -> Result<Address, VmError> {
        let nonce = self.account_mut(deployer).nonce;
        let addr = Self::contract_address(&deployer, nonce);
        if self
            .accounts
            .get(&addr)
            .map(Account::is_contract)
            .unwrap_or(false)
        {
            return Err(VmError::AddressCollision);
        }
        self.account_mut(deployer).nonce += 1;
        let account = self.account_mut(addr);
        account.code = code;
        Ok(addr)
    }

    /// Reads a contract storage slot (zero default).
    pub fn storage_get(&self, addr: &Address, key: &U256) -> U256 {
        self.accounts
            .get(addr)
            .and_then(|a| a.storage.get(key).copied())
            .unwrap_or(U256::ZERO)
    }

    /// Writes a contract storage slot; returns `true` when the slot was
    /// previously unset (gas pricing distinguishes fresh writes).
    pub fn storage_set(&mut self, addr: Address, key: U256, value: U256) -> bool {
        let prev = self.account_mut(addr).storage.insert(key, value);
        if let Some(journal) = self.journal.as_mut() {
            journal.push(JournalEntry::Storage(addr, key, prev));
        }
        prev.is_none()
    }

    /// Total currency in circulation (conservation-law checks in tests).
    pub fn total_supply(&self) -> Ether {
        self.accounts.values().map(|a| a.balance).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn addr(l: &str) -> Address {
        Address::from_label(l)
    }

    #[test]
    fn credit_debit_transfer() {
        let mut s = WorldState::new();
        s.credit(addr("a"), Ether::from_ether(5));
        s.transfer(addr("a"), addr("b"), Ether::from_ether(2))
            .unwrap();
        assert_eq!(s.balance(&addr("a")), Ether::from_ether(3));
        assert_eq!(s.balance(&addr("b")), Ether::from_ether(2));
        assert!(s.debit(addr("b"), Ether::from_ether(3)).is_err());
    }

    #[test]
    fn transfer_conserves_supply() {
        let mut s = WorldState::new();
        s.credit(addr("a"), Ether::from_ether(10));
        let before = s.total_supply();
        s.transfer(addr("a"), addr("b"), Ether::from_ether(4))
            .unwrap();
        assert_eq!(s.total_supply(), before);
    }

    #[test]
    fn contract_addresses_are_deterministic_and_distinct() {
        let d = addr("deployer");
        let a0 = WorldState::contract_address(&d, 0);
        let a1 = WorldState::contract_address(&d, 1);
        assert_ne!(a0, a1);
        assert_eq!(a0, WorldState::contract_address(&d, 0));
    }

    #[test]
    fn deploy_increments_nonce() {
        let mut s = WorldState::new();
        let d = addr("deployer");
        let c1 = s.deploy_contract(d, vec![0x00]).unwrap();
        let c2 = s.deploy_contract(d, vec![0x00]).unwrap();
        assert_ne!(c1, c2);
        assert_eq!(s.account(&d).unwrap().nonce, 2);
        assert!(s.account(&c1).unwrap().is_contract());
    }

    #[test]
    fn deploy_rejects_malformed_corpus_with_typed_errors() {
        use crate::isa::Op;
        // (label, bytecode): each is provably faulty in a different way.
        let corpus: Vec<(&str, Vec<u8>)> = vec![
            ("stack underflow", vec![Op::Add as u8]),
            // PUSH 3; JUMP — destination 3 lands inside the push immediate.
            (
                "jump into immediate",
                crate::asm::assemble("PUSH 3\nJUMP\n").unwrap(),
            ),
            ("unknown opcode", vec![0xfe]),
            ("truncated PUSH32", vec![Op::Push32 as u8, 1, 2, 3]),
        ];
        for (label, code) in corpus {
            let mut s = WorldState::new();
            let d = addr("deployer");
            let err = s.deploy_contract(d, code).unwrap_err();
            match err {
                VmError::Verify(_)
                | VmError::InvalidOpcode { .. }
                | VmError::TruncatedImmediate { .. } => {}
                other => panic!("{label}: unexpected error {other:?}"),
            }
            // Rejection happens before any state change.
            assert!(s.account(&d).is_none(), "{label}: nonce was consumed");
        }
    }

    #[test]
    fn storage_defaults_to_zero() {
        let mut s = WorldState::new();
        let c = addr("c");
        assert_eq!(s.storage_get(&c, &U256::from_u64(1)), U256::ZERO);
        let fresh = s.storage_set(c, U256::from_u64(1), U256::from_u64(9));
        assert!(fresh);
        let fresh = s.storage_set(c, U256::from_u64(1), U256::from_u64(10));
        assert!(!fresh);
        assert_eq!(s.storage_get(&c, &U256::from_u64(1)), U256::from_u64(10));
    }

    #[test]
    fn snapshot_restore_roundtrip() {
        let mut s = WorldState::new();
        s.credit(addr("a"), Ether::from_ether(1));
        let snap = s.clone();
        s.credit(addr("a"), Ether::from_ether(99));
        s.storage_set(addr("c"), U256::ONE, U256::ONE);
        s = snap;
        assert_eq!(s.balance(&addr("a")), Ether::from_ether(1));
        assert_eq!(s.storage_get(&addr("c"), &U256::ONE), U256::ZERO);
    }
}

#[cfg(test)]
mod journal_tests {
    use super::*;

    fn addr(l: &str) -> Address {
        Address::from_label(l)
    }

    #[test]
    fn rollback_restores_balances_and_storage() {
        let mut s = WorldState::new();
        s.credit(addr("a"), Ether::from_ether(10));
        s.storage_set(addr("c"), U256::ONE, U256::from_u64(7));
        let reference = s.clone();

        s.begin_transaction();
        s.transfer(addr("a"), addr("b"), Ether::from_ether(4))
            .unwrap();
        s.storage_set(addr("c"), U256::ONE, U256::from_u64(99));
        s.storage_set(addr("c"), U256::from_u64(2), U256::from_u64(1));
        s.credit(addr("d"), Ether::from_ether(3));
        s.rollback();

        assert_eq!(s.balance(&addr("a")), reference.balance(&addr("a")));
        assert_eq!(s.balance(&addr("b")), Ether::ZERO);
        assert_eq!(s.balance(&addr("d")), Ether::ZERO);
        assert_eq!(s.storage_get(&addr("c"), &U256::ONE), U256::from_u64(7));
        assert_eq!(s.storage_get(&addr("c"), &U256::from_u64(2)), U256::ZERO);
        assert_eq!(s.total_supply(), reference.total_supply());
    }

    #[test]
    fn commit_keeps_changes() {
        let mut s = WorldState::new();
        s.credit(addr("a"), Ether::from_ether(10));
        s.begin_transaction();
        s.transfer(addr("a"), addr("b"), Ether::from_ether(4))
            .unwrap();
        s.commit();
        assert_eq!(s.balance(&addr("b")), Ether::from_ether(4));
    }

    #[test]
    fn repeated_writes_to_one_slot_roll_back_to_the_original() {
        let mut s = WorldState::new();
        s.storage_set(addr("c"), U256::ONE, U256::from_u64(1));
        s.begin_transaction();
        for v in 2..20u64 {
            s.storage_set(addr("c"), U256::ONE, U256::from_u64(v));
        }
        s.rollback();
        assert_eq!(s.storage_get(&addr("c"), &U256::ONE), U256::from_u64(1));
    }

    #[test]
    #[should_panic(expected = "nested transactions")]
    fn nesting_panics() {
        let mut s = WorldState::new();
        s.begin_transaction();
        s.begin_transaction();
    }

    #[test]
    #[should_panic(expected = "no open transaction")]
    fn rollback_without_begin_panics() {
        let mut s = WorldState::new();
        s.rollback();
    }
}
