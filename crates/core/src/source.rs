//! One evaluation path for every correlation query.
//!
//! The χ² verdict, the interest `I(r)` of a cell and the border of
//! correlation are all functions of itemset supports: the `2^m`
//! contingency table of a set is the Möbius transform of its subset
//! supports. A query therefore needs only a [`SupportSource`] — something
//! that reads supports at one pinned cut — and the functions below
//! evaluate it the same way wherever those supports come from. The
//! engine's epoch-pinned snapshot is one source
//! ([`crate::engine::SnapshotSource`]); a cluster coordinator's
//! scatter-gather over shards is another. Supports are integers, so two
//! sources holding the same baskets at the same cut hand these functions
//! the same inputs, and every floating-point step runs here, once, in the
//! same order: their answers are bit-identical by construction.

use std::borrow::Borrow;
use std::sync::Arc;

use bmb_basket::{ContingencyTable, ItemId, Itemset};
use bmb_stats::{Chi2Test, InterestReport};

use crate::config::MinerConfig;
use crate::counting::{subset_itemsets, table_from_subset_supports, Marginals};
use crate::engine::{Chi2Answer, EngineError, InterestAnswer, MAX_QUERY_DIMS};
use crate::miner::{mine_with_counter, MiningResult};
use crate::report::PairCorrelation;

/// The cut a read was taken at.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Cut {
    /// Baskets visible at the cut.
    pub n: u64,
    /// The epoch answers report (for a sharded source, the sum of the
    /// shard epochs).
    pub epoch: u64,
}

/// Where a query's supports come from.
pub trait SupportSource {
    /// A failed read; validation errors lift into it.
    type Error: From<EngineError>;

    /// The χ² test this source's answers are judged by.
    fn test(&self) -> &Chi2Test;

    /// The item-space size every queried item must fall inside.
    fn n_items(&self) -> usize;

    /// `O(S)` for each of `subsets`, in order, with the cut they were read
    /// at. Each subset is strictly ascending and in range; the empty
    /// subset reads as the basket count. Every read of one source is at
    /// the same cut.
    ///
    /// # Errors
    ///
    /// Whatever keeps the source from reading (a shard down, a deadline).
    fn read_supports<T: Borrow<[ItemId]>>(
        &self,
        subsets: &[T],
    ) -> Result<(Vec<u64>, Cut), Self::Error>;

    /// The contingency tables of `sets` (each non-empty, at most
    /// [`MAX_QUERY_DIMS`] items, all in range) with the cut they were read
    /// at. Callers report [`EngineError::EmptySnapshot`] instead of using
    /// the tables when the cut holds no baskets, so a source may return
    /// none then. The default reads every subset lattice in one
    /// [`SupportSource::read_supports`] and inverts each; a source with caches
    /// overrides it.
    ///
    /// # Errors
    ///
    /// As [`SupportSource::read_supports`].
    fn tables(&self, sets: &[Itemset]) -> Result<(Vec<Arc<ContingencyTable>>, Cut), Self::Error> {
        let lattices: Vec<Vec<ItemId>> = sets.iter().flat_map(subset_itemsets).collect();
        let (supports, cut) = self.read_supports(&lattices)?;
        let mut rest = supports.as_slice();
        let tables = sets
            .iter()
            .map(|set| {
                let (lattice, tail) = rest.split_at(1 << set.len());
                rest = tail;
                Arc::new(table_from_subset_supports(set, lattice))
            })
            .collect();
        Ok((tables, cut))
    }
}

/// Chi-squared verdict for `set`.
///
/// # Errors
///
/// An empty, oversized or out-of-range itemset, an empty cut, or a failed
/// read.
pub fn chi2<S: SupportSource>(source: &S, set: &Itemset) -> Result<Chi2Answer, S::Error> {
    let (table, cut) = table(source, set)?;
    Ok(chi2_answer(source.test(), set, &table, cut))
}

/// One [`chi2_batch`] entry: the answer, or why the set has none.
pub type BatchEntry = Result<Chi2Answer, EngineError>;

/// Chi-squared verdicts for `sets`, all from one read at one cut; each
/// entry carries its own validation error.
///
/// # Errors
///
/// A failed read.
pub fn chi2_batch<S: SupportSource>(
    source: &S,
    sets: &[Itemset],
) -> Result<(Vec<BatchEntry>, Cut), S::Error> {
    let (tables, cut) = point_tables(source, sets)?;
    let answers = sets
        .iter()
        .zip(tables)
        .map(|(set, table)| table.map(|table| chi2_answer(source.test(), set, &table, cut)))
        .collect();
    Ok((answers, cut))
}

/// Interest `I(r) = O(r)/E[r]` of cell `cell` of `set`'s table.
///
/// # Errors
///
/// As [`chi2`], plus a cell mask outside the table.
pub fn interest<S: SupportSource>(
    source: &S,
    set: &Itemset,
    cell: u32,
) -> Result<InterestAnswer, S::Error> {
    let (table, cut) = table(source, set)?;
    if cell as usize >= table.n_cells() {
        return Err(EngineError::CellOutOfRange {
            cell,
            dims: table.dims(),
        }
        .into());
    }
    let info = InterestReport::analyze(&table).cells()[cell as usize];
    Ok(InterestAnswer {
        itemset: set.clone(),
        cell,
        epoch: cut.epoch,
        observed: info.observed,
        expected: info.expected,
        interest: info.interest,
    })
}

/// The `k` most correlated item pairs, ranked by chi-squared statistic
/// (descending, ties by item ids), from one read of every singleton and
/// pair support.
///
/// # Errors
///
/// An empty cut, or a failed read.
pub fn topk_pairs<S: SupportSource>(
    source: &S,
    k: usize,
) -> Result<(Vec<PairCorrelation>, Cut), S::Error> {
    let n_items = source.n_items();
    let pairs: Vec<[ItemId; 2]> = (0..n_items as u32)
        .flat_map(|a| (a + 1..n_items as u32).map(move |b| [ItemId(a), ItemId(b)]))
        .collect();
    let subsets: Vec<Vec<ItemId>> = (0..n_items as u32)
        .map(|item| vec![ItemId(item)])
        .chain(pairs.iter().map(|pair| pair.to_vec()))
        .collect();
    let (supports, cut) = source.read_supports(&subsets)?;
    if cut.n == 0 {
        return Err(EngineError::EmptySnapshot.into());
    }
    let (item_counts, pair_supports) = supports.split_at(n_items);
    let mut rows: Vec<PairCorrelation> = pairs
        .iter()
        .zip(pair_supports)
        .map(|(&[a, b], &s_ab)| {
            let set = Itemset::from_sorted_slice(&[a, b]);
            let lattice = [cut.n, item_counts[a.index()], item_counts[b.index()], s_ab];
            PairCorrelation::from_table(&table_from_subset_supports(&set, &lattice), source.test())
        })
        .collect();
    rows.sort_unstable_by(|x, y| {
        y.chi2
            .statistic
            .total_cmp(&x.chi2.statistic)
            .then_with(|| (x.a, x.b).cmp(&(y.a, y.b)))
    });
    rows.truncate(k);
    Ok((rows, cut))
}

/// The border of correlation: the level-wise miner of [`crate::mine`],
/// counting every level through `source`. Marginals come from one read
/// of the singletons; each level's candidates are one more read at the
/// same cut.
///
/// # Errors
///
/// An empty cut, or a failed read.
///
/// # Panics
///
/// Panics if `config` is invalid (see [`MinerConfig::validate`]).
pub fn border<S: SupportSource>(
    source: &S,
    config: &MinerConfig,
) -> Result<(MiningResult, Cut), S::Error> {
    let singletons: Vec<[ItemId; 1]> = (0..source.n_items() as u32)
        .map(|item| [ItemId(item)])
        .collect();
    let (item_counts, cut) = source.read_supports(&singletons)?;
    if cut.n == 0 {
        return Err(EngineError::EmptySnapshot.into());
    }
    let marginals = Marginals {
        n_baskets: cut.n,
        item_counts,
    };
    let count = |candidates: &[Itemset]| {
        source
            .read_supports(candidates)
            .map(|(supports, _)| supports)
    };
    Ok((mine_with_counter(&marginals, count, config)?, cut))
}

/// The contingency table of one point-query set, with the cut it was
/// read at. Errors come in a fixed order: an empty itemset, too many
/// items, an empty cut, an out-of-range item.
///
/// # Errors
///
/// As listed, or a failed read.
pub fn table<S: SupportSource>(
    source: &S,
    set: &Itemset,
) -> Result<(Arc<ContingencyTable>, Cut), S::Error> {
    // A malformed set is refused without a read.
    check_shape(set)?;
    let (tables, cut) = point_tables(source, std::slice::from_ref(set))?;
    let table = tables
        .into_iter()
        .next()
        .unwrap_or(Err(EngineError::EmptySnapshot))?;
    Ok((table, cut))
}

/// A point-query table, or why the set has none.
type TableEntry = Result<Arc<ContingencyTable>, EngineError>;

/// The tables of point-query `sets` from one [`SupportSource::tables`]
/// call, each entry failing in the order [`table`] documents. Sets that
/// fail before the cut is known read nothing; if none is left, the call
/// still reads the cut, since an empty cut outranks a range error.
fn point_tables<S: SupportSource>(
    source: &S,
    sets: &[Itemset],
) -> Result<(Vec<TableEntry>, Cut), S::Error> {
    let n_items = source.n_items();
    let ready: Vec<Itemset> = sets
        .iter()
        .filter(|set| check_shape(set).is_ok() && out_of_range(set, n_items).is_none())
        .cloned()
        .collect();
    let (tables, cut) = source.tables(&ready)?;
    let mut tables = tables.into_iter();
    let entries = sets
        .iter()
        .map(|set| {
            check_shape(set)?;
            if cut.n == 0 {
                return Err(EngineError::EmptySnapshot);
            }
            if let Some(item) = out_of_range(set, n_items) {
                return Err(EngineError::ItemOutOfRange { item, n_items });
            }
            tables.next().ok_or(EngineError::EmptySnapshot)
        })
        .collect();
    Ok((entries, cut))
}

/// The checks that need no cut: an empty or oversized itemset.
fn check_shape(set: &Itemset) -> Result<(), EngineError> {
    if set.is_empty() {
        return Err(EngineError::EmptyItemset);
    }
    if set.len() > MAX_QUERY_DIMS {
        return Err(EngineError::TooManyItems { len: set.len() });
    }
    Ok(())
}

fn out_of_range(set: &Itemset, n_items: usize) -> Option<ItemId> {
    set.items()
        .iter()
        .copied()
        .find(|item| item.index() >= n_items)
}

fn chi2_answer(test: &Chi2Test, set: &Itemset, table: &ContingencyTable, cut: Cut) -> Chi2Answer {
    let full_cell = (1u32 << set.len()) - 1;
    Chi2Answer {
        itemset: set.clone(),
        epoch: cut.epoch,
        support: table.observed(full_cell),
        outcome: test.test_dense(table),
    }
}
