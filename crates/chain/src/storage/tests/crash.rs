//! Crash-state enumeration for the durable store, in the style of ALICE
//! (Pillai et al., "All File Systems Are Not Created Equal", OSDI 2014).
//!
//! Every filesystem call the store makes goes through `storage::disk`,
//! which in this test build appends it to a per-thread trace. A test
//! records the trace of one store sequence, replays it here under a
//! conservative POSIX persistence model, and materialises every state a
//! power loss could leave:
//!
//! - the crash may follow any prefix of the trace;
//! - each write not yet covered by an fsync of its file may be dropped,
//!   kept, or cut to a prefix, independently of the others; each
//!   `set_len` may be dropped or kept;
//! - each create, mkdir, rename or remove not yet covered by an fsync of
//!   its directory may be undone, independently of the others.
//!
//! What the trace found on disk when it began counts as durable. Each
//! state is written to a scratch directory and opened with
//! [`DurableStore::open_with`]. The oracle: a crash is not damage, so
//! open neither panics nor fails; the store holds only blocks the test
//! made, each with its parent; it holds every block whose `commit`
//! returned before the crash (unless the store itself pruned it by the
//! end of the trace); and the checkpoint on disk is at least the one that
//! was on disk when the last such commit returned.

use super::durable::read_checkpoint;
use super::frame::FRAME_HEADER_LEN;
use super::{ChainQuery, DurableStore, StorageError, StoreConfig};
use crate::block::Block;
use crate::difficulty::Difficulty;
use crate::header::BlockId;
use crate::pow::Miner;
use smartcrowd_crypto::sha256::sha256d;
use smartcrowd_crypto::Address;
use std::cell::{Cell, RefCell};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};

/// One filesystem operation, as `storage::disk` performed it.
#[derive(Debug, Clone)]
pub(super) enum Op {
    Mkdir(PathBuf),
    /// Open with create; `truncate` empties an existing file.
    Create {
        path: PathBuf,
        truncate: bool,
    },
    Write {
        path: PathBuf,
        offset: u64,
        bytes: Vec<u8>,
    },
    SetLen {
        path: PathBuf,
        len: u64,
    },
    Sync(PathBuf),
    Rename {
        from: PathBuf,
        to: PathBuf,
    },
    Remove(PathBuf),
    SyncDir(PathBuf),
}

thread_local! {
    static TRACE: RefCell<Option<Vec<Op>>> = const { RefCell::new(None) };
    /// The kind of `storage::disk` call whose next run fails.
    static FAIL_NEXT: Cell<Option<&'static str>> = const { Cell::new(None) };
}

/// Makes this thread's next `storage::disk` call of kind `op`
/// (`"write"` or `"fsync"`) fail with an I/O error instead of running.
pub(super) fn fail_next(op: &'static str) {
    FAIL_NEXT.with(|armed| armed.set(Some(op)));
}

/// Whether this thread's call of kind `op` must fail; disarms it if so.
pub(super) fn take_failure(op: &'static str) -> bool {
    FAIL_NEXT.with(|armed| armed.get() == Some(op) && armed.take().is_some())
}

/// Appends `op` to this thread's trace while one is being recorded.
pub(super) fn record(op: impl FnOnce() -> Op) {
    TRACE.with(|trace| {
        if let Some(ops) = trace.borrow_mut().as_mut() {
            ops.push(op());
        }
    });
}

fn trace_len() -> usize {
    TRACE.with(|trace| trace.borrow().as_ref().map_or(0, Vec::len))
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Node {
    Dir,
    File(usize),
}

/// A namespace change no directory fsync covers yet.
#[derive(Debug, Clone)]
enum Change {
    Link(PathBuf, Node),
    Rename {
        from: PathBuf,
        to: PathBuf,
        node: Node,
    },
    Unlink(PathBuf),
}

impl Change {
    /// The directory whose fsync makes this change durable.
    fn dir(&self) -> &Path {
        let name = match self {
            Change::Link(path, _) | Change::Unlink(path) => path,
            Change::Rename { to, .. } => to,
        };
        name.parent().unwrap_or(Path::new(""))
    }

    fn apply(&self, names: &mut BTreeMap<PathBuf, Node>) {
        match self {
            Change::Link(path, node) => {
                names.insert(path.clone(), *node);
            }
            Change::Rename { from, to, node } => {
                names.insert(to.clone(), *node);
                if names.get(from) == Some(node) {
                    names.remove(from);
                }
            }
            Change::Unlink(path) => {
                names.remove(path);
            }
        }
    }
}

/// Writes up to this long are cut at every byte.
const EVERY_CUT: usize = 512;

/// A data change no fsync of its file covers yet.
#[derive(Debug, Clone)]
enum DataOp {
    Write { offset: u64, bytes: Vec<u8> },
    SetLen(u64),
}

/// How one unsynced data change lands in a crash state.
#[derive(Debug, Clone, Copy)]
enum Fate {
    Dropped,
    Kept,
    Cut(usize),
}

impl DataOp {
    /// Every way the change can land. A write may also be cut to any
    /// prefix when it is at most [`EVERY_CUT`] bytes long (a block
    /// frame), and otherwise to one byte, a bare frame header, half, or
    /// all but one byte.
    fn fates(&self) -> Vec<Fate> {
        let mut fates = vec![Fate::Dropped, Fate::Kept];
        if let DataOp::Write { bytes, .. } = self {
            let n = bytes.len();
            let mut cuts = if n <= EVERY_CUT {
                (1..n).collect()
            } else {
                vec![1, FRAME_HEADER_LEN, n / 2, n - 1]
            };
            cuts.sort_unstable();
            cuts.dedup();
            fates.extend(cuts.into_iter().map(Fate::Cut));
        }
        fates
    }

    fn apply(&self, content: &mut Vec<u8>, fate: Fate) {
        match (self, fate) {
            (_, Fate::Dropped) => {}
            (DataOp::SetLen(len), _) => content.resize(*len as usize, 0),
            (DataOp::Write { offset, bytes }, Fate::Kept) => write_into(content, *offset, bytes),
            (DataOp::Write { offset, bytes }, Fate::Cut(keep)) => {
                write_into(content, *offset, &bytes[..keep]);
            }
        }
    }
}

/// A positional write: a gap before `offset` reads back as zeros.
fn write_into(content: &mut Vec<u8>, offset: u64, bytes: &[u8]) {
    let (start, end) = (offset as usize, offset as usize + bytes.len());
    if content.len() < end {
        content.resize(end, 0);
    }
    content[start..end].copy_from_slice(bytes);
}

#[derive(Debug, Clone, Default)]
struct Inode {
    /// Content as of the file's last fsync.
    durable: Vec<u8>,
    pending: Vec<DataOp>,
}

/// A materialisable crash state: root-relative paths in order, `None`
/// for a directory.
type State = Vec<(PathBuf, Option<Vec<u8>>)>;

/// The persistence model: what a running process sees, and what a crash
/// is sure to keep.
#[derive(Debug, Clone, Default)]
struct Model {
    names: BTreeMap<PathBuf, Node>,
    durable: BTreeMap<PathBuf, Node>,
    pending: Vec<Change>,
    inodes: Vec<Inode>,
}

impl Model {
    /// The tree under `root`, all of it durable.
    fn load(root: &Path) -> Model {
        fn walk(model: &mut Model, root: &Path, dir: &Path) {
            let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)
                .unwrap()
                .map(|e| e.unwrap().path())
                .collect();
            entries.sort();
            for path in entries {
                let rel = path.strip_prefix(root).unwrap().to_path_buf();
                if path.is_dir() {
                    model.names.insert(rel, Node::Dir);
                    walk(model, root, &path);
                } else {
                    model.inodes.push(Inode {
                        durable: std::fs::read(&path).unwrap(),
                        pending: Vec::new(),
                    });
                    model.names.insert(rel, Node::File(model.inodes.len() - 1));
                }
            }
        }
        let mut model = Model::default();
        walk(&mut model, root, root);
        model.durable = model.names.clone();
        model
    }

    fn file(&self, path: &Path) -> usize {
        match self.names.get(path) {
            Some(Node::File(inode)) => *inode,
            other => panic!("the trace writes {path:?}, which is {other:?}"),
        }
    }

    fn apply(&mut self, op: &Op, root: &Path) {
        let rel = |path: &Path| path.strip_prefix(root).unwrap().to_path_buf();
        match op {
            Op::Mkdir(path) => {
                self.names.insert(rel(path), Node::Dir);
                self.pending.push(Change::Link(rel(path), Node::Dir));
            }
            Op::Create { path, truncate } => match self.names.get(&rel(path)) {
                Some(Node::File(inode)) => {
                    if *truncate {
                        self.inodes[*inode].pending.push(DataOp::SetLen(0));
                    }
                }
                _ => {
                    self.inodes.push(Inode::default());
                    let node = Node::File(self.inodes.len() - 1);
                    self.names.insert(rel(path), node);
                    self.pending.push(Change::Link(rel(path), node));
                }
            },
            Op::Write {
                path,
                offset,
                bytes,
            } => {
                let inode = self.file(&rel(path));
                self.inodes[inode].pending.push(DataOp::Write {
                    offset: *offset,
                    bytes: bytes.clone(),
                });
            }
            Op::SetLen { path, len } => {
                let inode = self.file(&rel(path));
                self.inodes[inode].pending.push(DataOp::SetLen(*len));
            }
            Op::Sync(path) => {
                let inode = self.file(&rel(path));
                let inode = &mut self.inodes[inode];
                for op in std::mem::take(&mut inode.pending) {
                    op.apply(&mut inode.durable, Fate::Kept);
                }
            }
            Op::Rename { from, to } => {
                let (from, to) = (rel(from), rel(to));
                assert_eq!(from.parent(), to.parent(), "cross-directory rename");
                let node = self.names.remove(&from).expect("rename of a missing file");
                self.names.insert(to.clone(), node);
                self.pending.push(Change::Rename { from, to, node });
            }
            Op::Remove(path) => {
                self.names.remove(&rel(path));
                self.pending.push(Change::Unlink(rel(path)));
            }
            Op::SyncDir(dir) => {
                let dir = rel(dir);
                let (now, later): (Vec<Change>, Vec<Change>) =
                    self.pending.drain(..).partition(|c| c.dir() == dir);
                for change in &now {
                    change.apply(&mut self.durable);
                }
                self.pending = later;
            }
        }
    }

    /// Calls `visit` with every state a crash right now can leave, and a
    /// description of how each was chosen.
    fn for_each_crash_state(&self, mut visit: impl FnMut(&State, &dyn Fn() -> String)) {
        assert!(
            self.pending.len() < 16,
            "too many unsynced namespace changes"
        );
        for mask in 0u32..1 << self.pending.len() {
            let mut names = self.durable.clone();
            let kept = |i: usize| mask >> i & 1 == 1;
            for (i, change) in self.pending.iter().enumerate() {
                if kept(i) {
                    change.apply(&mut names);
                }
            }
            // Only what hangs off the root is reachable.
            let reachable: Vec<(PathBuf, Node)> = names
                .iter()
                .filter(|(path, _)| {
                    path.ancestors()
                        .skip(1)
                        .all(|a| a.as_os_str().is_empty() || names.get(a) == Some(&Node::Dir))
                })
                .map(|(path, node)| (path.clone(), *node))
                .collect();
            let mut files: Vec<(usize, &PathBuf)> = reachable
                .iter()
                .filter_map(|(path, node)| match node {
                    Node::File(inode) => Some((*inode, path)),
                    Node::Dir => None,
                })
                .collect();
            files.sort();
            files.dedup_by_key(|(inode, _)| *inode);
            let slots: Vec<(usize, &PathBuf, &DataOp, Vec<Fate>)> = files
                .iter()
                .flat_map(|&(inode, path)| {
                    self.inodes[inode]
                        .pending
                        .iter()
                        .map(move |op| (inode, path, op, op.fates()))
                })
                .collect();
            let mut choice = vec![0usize; slots.len()];
            loop {
                let mut contents: HashMap<usize, Vec<u8>> = files
                    .iter()
                    .map(|&(inode, _)| (inode, self.inodes[inode].durable.clone()))
                    .collect();
                for ((inode, _, op, fates), &c) in slots.iter().zip(&choice) {
                    op.apply(contents.get_mut(inode).unwrap(), fates[c]);
                }
                let state: State = reachable
                    .iter()
                    .map(|(path, node)| {
                        let content = match node {
                            Node::Dir => None,
                            Node::File(inode) => Some(contents[inode].clone()),
                        };
                        (path.clone(), content)
                    })
                    .collect();
                let describe = || {
                    let undone: Vec<String> = (0..self.pending.len())
                        .filter(|&i| !kept(i))
                        .map(|i| format!("{:?}", self.pending[i]))
                        .collect();
                    let data: Vec<String> = slots
                        .iter()
                        .zip(&choice)
                        .map(|((_, path, op, fates), &c)| {
                            let what = match op {
                                DataOp::Write { offset, bytes } => {
                                    format!("write of {} bytes at {offset}", bytes.len())
                                }
                                DataOp::SetLen(len) => format!("set_len({len})"),
                            };
                            format!("{} {what}: {:?}", path.display(), fates[c])
                        })
                        .collect();
                    format!("undone namespace changes {undone:?}; unsynced data {data:?}")
                };
                visit(&state, &describe);
                // Next combination of fates, odometer style.
                let mut k = 0;
                while k < slots.len() {
                    choice[k] += 1;
                    if choice[k] < slots[k].3.len() {
                        break;
                    }
                    choice[k] = 0;
                    k += 1;
                }
                if k == slots.len() {
                    break;
                }
            }
        }
    }
}

fn fingerprint(state: &State, required: usize, floor: u64) -> [u8; 32] {
    let mut bytes = Vec::new();
    for (path, content) in state {
        bytes.extend_from_slice(path.as_os_str().as_encoded_bytes());
        bytes.push(0);
        match content {
            None => bytes.push(0),
            Some(data) => {
                bytes.push(1);
                bytes.extend_from_slice(&(data.len() as u64).to_be_bytes());
                bytes.extend_from_slice(data);
            }
        }
    }
    bytes.extend_from_slice(&(required as u64).to_be_bytes());
    bytes.extend_from_slice(&floor.to_be_bytes());
    sha256d(&bytes)
}

fn materialize(state: &State, root: &Path) {
    let _ = std::fs::remove_dir_all(root);
    std::fs::create_dir_all(root).unwrap();
    for (path, content) in state {
        match content {
            None => std::fs::create_dir(root.join(path)).unwrap(),
            Some(bytes) => std::fs::write(root.join(path), bytes).unwrap(),
        }
    }
}

fn listing(state: &State) -> String {
    state
        .iter()
        .map(|(path, content)| match content {
            None => format!("{}/", path.display()),
            Some(bytes) => format!("{} ({} bytes)", path.display(), bytes.len()),
        })
        .collect::<Vec<_>>()
        .join(", ")
}

/// The checkpoint height on disk in the store at `dir` (0 without one).
fn disk_floor(dir: &Path) -> Result<u64, StorageError> {
    Ok(read_checkpoint(&dir.join("checkpoint"))?.map_or(0, |(height, _)| height))
}

/// The snapshot cadence the traces run at: a snapshot, and a
/// checkpoint, every second confirmed height.
const CONFIG: StoreConfig = StoreConfig {
    cache_capacity: 2,
    snapshot_interval: 2,
};

/// No snapshot, so no checkpoint either: nothing but the log's own
/// fsyncs covers a compaction.
const NO_SNAPSHOTS: StoreConfig = StoreConfig {
    cache_capacity: 2,
    snapshot_interval: 0,
};

/// Crash states one trace may produce; a trace that outgrows it fails
/// rather than being sampled.
const BOUND: usize = 4_096;

/// One trace's live store directory, and every block its test made.
struct World {
    base: PathBuf,
    config: StoreConfig,
    genesis: Block,
    miner: Miner,
    blocks: HashMap<BlockId, Block>,
}

impl World {
    fn new(name: &str, config: StoreConfig) -> World {
        let base = std::env::temp_dir().join(format!("sc-crash-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&base);
        std::fs::create_dir_all(base.join("live")).unwrap();
        let genesis = Block::genesis(Difficulty::from_u64(1));
        World {
            base,
            config,
            blocks: HashMap::from([(genesis.id(), genesis.clone())]),
            genesis,
            miner: Miner::new(Address::from_label("crash-states")),
        }
    }

    /// The root the trace is relative to; the store is its `store/`.
    fn root(&self) -> PathBuf {
        self.base.join("live")
    }

    fn store_dir(&self) -> PathBuf {
        self.root().join("store")
    }

    fn open(&self) -> DurableStore {
        DurableStore::open_with(&self.store_dir(), &self.genesis, self.config).unwrap()
    }

    fn mine(&mut self, parent: &Block, salt: u64) -> Block {
        let block = self
            .miner
            .mine_next(parent, vec![], parent.header().timestamp + 15 + salt)
            .unwrap();
        self.blocks.insert(block.id(), block.clone());
        block
    }

    /// A store holding a linear chain up to `height`, and that chain.
    fn grown(&mut self, height: u64) -> (DurableStore, Vec<Block>) {
        let mut store = self.open();
        let mut chain = vec![self.genesis.clone()];
        for _ in 0..height {
            let block = self.mine(chain.last().unwrap(), 0);
            store.commit(block.clone()).unwrap();
            chain.push(block);
        }
        (store, chain)
    }

    /// The oracle, on the store at `dir`.
    fn check(&self, dir: &Path, required: &[BlockId], floor: u64) -> Result<(), String> {
        let on_disk = disk_floor(dir).map_err(|e| format!("unreadable checkpoint: {e}"))?;
        if on_disk < floor {
            return Err(format!("the checkpoint fell from {floor} to {on_disk}"));
        }
        let opened = catch_unwind(AssertUnwindSafe(|| {
            DurableStore::open_with(dir, &self.genesis, self.config)
        }));
        let store = match opened {
            Err(_) => return Err("open panicked".to_string()),
            Ok(Err(e)) => return Err(format!("open failed: {e}")),
            Ok(Ok(store)) => store,
        };
        let held: Vec<&Block> = self
            .blocks
            .values()
            .filter(|b| store.contains_block(&b.id()))
            .collect();
        if held.len() != store.block_count() {
            return Err("the store holds a block no commit wrote".to_string());
        }
        for block in held {
            let height = block.header().height;
            if height > 0 && !store.contains_block(&block.header().prev) {
                return Err(format!("block at height {height} lost its parent"));
            }
            if store.get_block(&block.id()).as_ref() != Some(block) {
                return Err(format!("block at height {height} is unreadable"));
            }
        }
        match required.iter().find(|id| !store.contains_block(id)) {
            Some(lost) => Err(format!("lost block {lost}, whose commit returned")),
            None => Ok(()),
        }
    }
}

/// One trace being recorded over a [`World`].
struct Recording {
    baseline: Model,
    /// Blocks held, and the checkpoint on disk, when the trace began.
    held: Vec<BlockId>,
    floor: u64,
    /// `(trace length, block, checkpoint on disk)` as each commit returned.
    acks: Vec<(usize, BlockId, u64)>,
}

impl Recording {
    /// Starts tracing this thread's filesystem calls; `store` is the
    /// store already open in `world`, if any.
    fn begin(world: &World, store: Option<&DurableStore>) -> Recording {
        let held = store.map_or_else(Vec::new, |store| {
            world
                .blocks
                .keys()
                .filter(|id| store.contains_block(id))
                .copied()
                .collect()
        });
        let recording = Recording {
            baseline: Model::load(&world.root()),
            held,
            floor: disk_floor(&world.store_dir()).unwrap(),
            acks: Vec::new(),
        };
        TRACE.with(|trace| *trace.borrow_mut() = Some(Vec::new()));
        recording
    }

    fn commit(&mut self, world: &World, store: &mut DurableStore, block: &Block) {
        store.commit(block.clone()).unwrap();
        self.acks.push((
            trace_len(),
            block.id(),
            disk_floor(&world.store_dir()).unwrap(),
        ));
    }

    /// Stops tracing, checks every crash state of the trace, and returns
    /// how many distinct ones there were.
    fn finish(self, world: &World, store: DurableStore, name: &str) -> usize {
        let ops = TRACE.with(|trace| trace.borrow_mut().take()).unwrap();
        // Blocks the store pruned by the end of the trace were deleted
        // on purpose; a crash state may hold them or not.
        let kept = |id: &BlockId| store.contains_block(id);
        let root = world.root();
        let scratch = world.base.join("state");
        let mut model = self.baseline.clone();
        let mut seen = HashSet::new();
        let mut visited = 0usize;
        for prefix in 0..=ops.len() {
            if prefix > 0 {
                model.apply(&ops[prefix - 1], &root);
            }
            let returned = self.acks.iter().filter(|(at, ..)| *at <= prefix);
            let required: Vec<BlockId> = self
                .held
                .iter()
                .chain(returned.clone().map(|(_, id, _)| id))
                .copied()
                .filter(kept)
                .collect();
            let floor = returned
                .map(|(.., floor)| *floor)
                .fold(self.floor, u64::max);
            model.for_each_crash_state(|state, describe| {
                visited += 1;
                assert!(visited <= BOUND, "{name}: more than {BOUND} crash states");
                if !seen.insert(fingerprint(state, required.len(), floor)) {
                    return;
                }
                materialize(state, &scratch);
                if let Err(why) = world.check(&scratch.join("store"), &required, floor) {
                    panic!(
                        "{name}: crash after op {prefix} of {} ({:?}) breaks recovery: {why}\n\
                         files: {}\n{}",
                        ops.len(),
                        prefix.checked_sub(1).map(|i| &ops[i]),
                        listing(state),
                        describe()
                    );
                }
            });
        }
        drop(store);
        let _ = std::fs::remove_dir_all(&world.base);
        println!("{name}: {} ops, {} crash states", ops.len(), seen.len());
        seen.len()
    }
}

#[test]
fn crash_states_of_a_fresh_open() {
    // The open creates the directory and `blocks.log`; its first commit
    // is what a lost name would take with it.
    let mut world = World::new("fresh", CONFIG);
    let mut rec = Recording::begin(&world, None);
    let mut store = world.open();
    let genesis = world.genesis.clone();
    let block = world.mine(&genesis, 0);
    rec.commit(&world, &mut store, &block);
    assert!(rec.finish(&world, store, "fresh open") > 1);
}

#[test]
fn crash_states_of_an_extending_commit() {
    // Height 9 advances the checkpoint to 3, between two snapshots.
    let mut world = World::new("extend", CONFIG);
    let (mut store, chain) = world.grown(8);
    let block = world.mine(&chain[8], 0);
    let mut rec = Recording::begin(&world, Some(&store));
    rec.commit(&world, &mut store, &block);
    assert!(rec.finish(&world, store, "extending commit") > 1);
}

#[test]
fn crash_states_of_a_fork_commit() {
    // A sibling of the tip: stored, not adopted.
    let mut world = World::new("fork", CONFIG);
    let (mut store, chain) = world.grown(8);
    let fork = world.mine(&chain[7], 1);
    let mut rec = Recording::begin(&world, Some(&store));
    rec.commit(&world, &mut store, &fork);
    assert_eq!(store.best_tip(), chain[8].id());
    assert!(rec.finish(&world, store, "fork commit") > 1);
}

#[test]
fn crash_states_of_a_prune_compaction() {
    // A fork at height 4 falls below the horizon when height 10 lands:
    // that commit compacts the log (and refreshes the snapshot, when
    // there is one), and the next one appends to the compacted log.
    for (name, config) in [("prune", NO_SNAPSHOTS), ("prune+snapshot", CONFIG)] {
        let mut world = World::new(name, config);
        let (mut store, mut chain) = world.grown(4);
        let fork = world.mine(&chain[3], 1);
        store.commit(fork.clone()).unwrap();
        for _ in 4..9 {
            let block = world.mine(chain.last().unwrap(), 0);
            store.commit(block.clone()).unwrap();
            chain.push(block);
        }
        let mut rec = Recording::begin(&world, Some(&store));
        for _ in 0..2 {
            let block = world.mine(chain.last().unwrap(), 0);
            rec.commit(&world, &mut store, &block);
            chain.push(block);
        }
        assert!(!store.contains_block(&fork.id()), "the fork was not pruned");
        assert!(rec.finish(&world, store, name) > 1);
    }
}

#[test]
fn crash_states_of_a_snapshot_write() {
    // Height 10 advances the checkpoint to 4, a snapshot height; height
    // 11 commits past it.
    let mut world = World::new("snapshot", CONFIG);
    let (mut store, mut chain) = world.grown(9);
    let mut rec = Recording::begin(&world, Some(&store));
    for _ in 0..2 {
        let block = world.mine(chain.last().unwrap(), 0);
        rec.commit(&world, &mut store, &block);
        chain.push(block);
    }
    assert_eq!(store.snapshot_height(), 4);
    assert!(rec.finish(&world, store, "snapshot write") > 1);
}
