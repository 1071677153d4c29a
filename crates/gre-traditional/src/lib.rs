//! # gre-traditional
//!
//! From-scratch Rust implementations of the traditional in-memory indexes
//! the paper compares against (§3.1):
//!
//! * [`BPlusTree`] — STX-style B+-tree with leaf side-links.
//! * [`Art`] — Adaptive Radix Tree with the four adaptive node types.
//! * [`Hot`] — simplified height-optimised trie (compact nibble trie).
//! * [`Masstree`] — simplified Masstree (single-layer trie of B+-trees).
//! * [`Wormhole`] — simplified hash-accelerated ordered index.
//! * [`btree_olc`], [`art_olc`], [`hot_rowex`], [`masstree_concurrent`]
//!   and [`wormhole_concurrent`] — the concurrent derivatives used by the
//!   multi-threaded experiments (B+tree/p64, ART/p64, HOT/p64, Masstree,
//!   Wormhole).

mod art;
mod btree;
mod concurrent;
mod hot;
mod masstree;
mod wormhole;

pub use art::Art;
pub use btree::BPlusTree;
pub use concurrent::{
    art_olc, btree_olc, hot_rowex, masstree_concurrent, wormhole_concurrent, BPlusTreeOlc,
};
pub use hot::Hot;
pub use masstree::Masstree;
pub use wormhole::Wormhole;
