//! Rows: the columnar `Batch` operators exchange, and the [`Tuple`] a
//! result materializes into at the boundary.

use oodb_algebra::VarId;
use oodb_object::Oid;

/// The bindings of one row, however the row is stored.
pub trait Row {
    /// The binding, if any.
    fn try_get(&self, var: VarId) -> Option<Oid>;

    /// The binding of a variable; panics when unbound (an optimizer bug —
    /// plans must bind variables before use).
    fn get(&self, var: VarId) -> Oid {
        self.try_get(var)
            .unwrap_or_else(|| panic!("variable v{} unbound in tuple", var.index()))
    }
}

/// A result row: scope variables bound to object identities. Whether the
/// bound object's *state* is resident is a physical-property concern
/// handled by the optimizer; at execution time each operator fetches what
/// it needs and charges the shared I/O stack.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct Tuple {
    slots: Vec<Option<Oid>>,
}

impl Tuple {
    /// The binding of a variable; panics when unbound.
    pub fn get(&self, var: VarId) -> Oid {
        Row::get(self, var)
    }

    /// The binding, if any.
    pub fn try_get(&self, var: VarId) -> Option<Oid> {
        self.slots[var.index()]
    }

    /// Bound variables, for set-operation keys.
    pub fn bound(&self) -> impl Iterator<Item = (usize, Oid)> + '_ {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.map(|o| (i, o)))
    }
}

impl Row for Tuple {
    fn try_get(&self, var: VarId) -> Option<Oid> {
        self.slots[var.index()]
    }
}

/// What operators pass each other: one OID column per bound variable plus
/// a selection vector. Every row binds the same variables, so a variable
/// is bound or unbound for the whole batch. A filter narrows the
/// selection instead of copying columns; operators that add a column
/// first [`Batch::compact`] the batch.
#[derive(Clone, Debug)]
pub(crate) struct Batch {
    /// One column per scope variable, `None` where it is unbound.
    cols: Vec<Option<Vec<Oid>>>,
    /// Physical rows in every bound column.
    rows: usize,
    /// The live physical rows, ascending; `None` means all of them.
    sel: Option<Vec<u32>>,
}

impl Batch {
    /// A batch binding only `var`, one row per OID.
    pub fn scan(n_vars: usize, var: VarId, oids: Vec<Oid>) -> Self {
        let mut cols = vec![None; n_vars];
        let rows = oids.len();
        cols[var.index()] = Some(oids);
        Batch {
            cols,
            rows,
            sel: None,
        }
    }

    /// Live rows.
    pub fn len(&self) -> usize {
        self.sel.as_ref().map_or(self.rows, Vec::len)
    }

    /// True when no row is live.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The physical index of live row `i`.
    pub fn phys(&self, i: usize) -> usize {
        self.sel.as_ref().map_or(i, |s| s[i] as usize)
    }

    /// The physical indexes of every live row, in order.
    pub fn live(&self) -> Vec<u32> {
        match &self.sel {
            Some(s) => s.clone(),
            None => (0..self.rows as u32).collect(),
        }
    }

    /// Whether the batch binds `var`.
    pub fn binds(&self, var: VarId) -> bool {
        self.cols[var.index()].is_some()
    }

    /// A view of physical row `phys`.
    pub fn row(&self, phys: usize) -> BatchRow<'_> {
        BatchRow { batch: self, phys }
    }

    /// Narrows the live rows to `sel` (ascending physical indexes, a
    /// subset of the live ones).
    #[must_use]
    pub fn select(mut self, sel: Vec<u32>) -> Self {
        self.sel = Some(sel);
        self
    }

    /// A dense batch of the given physical rows, in the given order.
    #[must_use]
    pub fn gather(&self, idx: &[u32]) -> Self {
        Batch {
            cols: self
                .cols
                .iter()
                .map(|c| {
                    c.as_ref()
                        .map(|c| idx.iter().map(|&i| c[i as usize]).collect())
                })
                .collect(),
            rows: idx.len(),
            sel: None,
        }
    }

    /// The live rows as a dense batch (no selection vector).
    #[must_use]
    pub fn compact(self) -> Self {
        match &self.sel {
            Some(sel) => self.gather(sel),
            None => self,
        }
    }

    /// Binds `var` to `col` on every row, replacing any earlier binding.
    /// The batch must be dense and `col` one entry per row.
    pub fn bind(&mut self, var: VarId, col: Vec<Oid>) {
        debug_assert!(self.sel.is_none() && col.len() == self.rows);
        self.cols[var.index()] = Some(col);
    }

    /// Join output: one row per `(left row, right row)` pair of physical
    /// indexes. A variable both sides bind takes the right side's binding
    /// (they agree on every matching pair).
    pub fn join(left: &Batch, right: &Batch, pairs: &[(u32, u32)]) -> Self {
        let li: Vec<u32> = pairs.iter().map(|&(l, _)| l).collect();
        let mut out = left.gather(&li);
        for (slot, col) in right.cols.iter().enumerate() {
            if let Some(col) = col {
                out.cols[slot] = Some(pairs.iter().map(|&(_, r)| col[r as usize]).collect());
            }
        }
        out
    }

    /// Appends physical rows `idx` of `other`, which must bind the same
    /// variables. `self` must be dense.
    pub fn append(&mut self, other: &Batch, idx: &[u32]) {
        for (mine, theirs) in self.cols.iter_mut().zip(&other.cols) {
            if let (Some(m), Some(t)) = (mine, theirs) {
                m.extend(idx.iter().map(|&i| t[i as usize]));
            }
        }
        self.rows += idx.len();
    }

    /// The bound `(slot, oid)` pairs of physical row `phys`: the set-op
    /// key, comparable across batches.
    pub fn key(&self, phys: usize) -> Vec<(usize, Oid)> {
        self.cols
            .iter()
            .enumerate()
            .filter_map(|(v, c)| c.as_ref().map(|c| (v, c[phys])))
            .collect()
    }

    /// Which variables are bound, as a comparable mask.
    pub fn bound_vars(&self) -> Vec<bool> {
        self.cols.iter().map(Option::is_some).collect()
    }

    /// Materializes the live rows as result tuples.
    pub fn tuples(&self) -> Vec<Tuple> {
        (0..self.len())
            .map(|i| {
                let p = self.phys(i);
                Tuple {
                    slots: self.cols.iter().map(|c| c.as_ref().map(|c| c[p])).collect(),
                }
            })
            .collect()
    }
}

/// One physical row of a [`Batch`].
#[derive(Clone, Copy)]
pub(crate) struct BatchRow<'a> {
    batch: &'a Batch,
    phys: usize,
}

impl Row for BatchRow<'_> {
    fn try_get(&self, var: VarId) -> Option<Oid> {
        self.batch.cols[var.index()].as_ref().map(|c| c[self.phys])
    }
}

/// A candidate join output row before it is gathered: the right row's
/// bindings over the left row's.
#[derive(Clone, Copy)]
pub(crate) struct PairRow<'a> {
    /// The build/outer side.
    pub left: BatchRow<'a>,
    /// The probe/inner side.
    pub right: BatchRow<'a>,
}

impl Row for PairRow<'_> {
    fn try_get(&self, var: VarId) -> Option<Oid> {
        self.right.try_get(var).or_else(|| self.left.try_get(var))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oodb_object::TypeId;

    fn oid(i: u32) -> Oid {
        Oid::new(TypeId::from_index(0), i)
    }
    fn v(i: usize) -> VarId {
        VarId::from_index(i)
    }

    #[test]
    fn selection_gather_and_materialize() {
        let mut b = Batch::scan(4, v(2), (0..5).map(oid).collect());
        b.bind(v(0), (10..15).map(oid).collect());
        let b = b.select(vec![1, 3]);
        assert_eq!(b.len(), 2);
        assert_eq!(b.row(b.phys(1)).get(v(2)), oid(3));
        let t = b.compact().tuples();
        assert_eq!(t.len(), 2);
        assert_eq!((t[0].get(v(2)), t[0].get(v(0))), (oid(1), oid(11)));
        assert_eq!(t[1].try_get(v(1)), None);
        assert_eq!(t[1].bound().count(), 2);
    }

    #[test]
    fn join_gathers_both_sides() {
        let l = Batch::scan(4, v(0), (0..3).map(oid).collect());
        let r = Batch::scan(4, v(3), (7..10).map(oid).collect());
        let j = Batch::join(&l, &r, &[(2, 0), (0, 2)]);
        let t = j.tuples();
        assert_eq!((t[0].get(v(0)), t[0].get(v(3))), (oid(2), oid(7)));
        assert_eq!((t[1].get(v(0)), t[1].get(v(3))), (oid(0), oid(9)));
        let pair = PairRow {
            left: l.row(1),
            right: r.row(1),
        };
        assert_eq!((pair.get(v(0)), pair.get(v(3))), (oid(1), oid(8)));
    }

    #[test]
    #[should_panic(expected = "unbound")]
    fn unbound_get_panics() {
        Batch::scan(2, v(0), vec![oid(1)]).row(0).get(v(1));
    }
}
