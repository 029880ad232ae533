//! Predicate and operand evaluation over rows.
//!
//! Both evaluators are *total*: a dangling reference or unknown field
//! surfaces as a [`StoreError`] instead of a panic, so the executor can
//! run queries against partially recovered databases (the durability
//! crash harness does exactly that) and report corruption as a typed
//! failure.

use crate::tuple::Row;
use oodb_algebra::{Operand, PredId, QueryEnv};
use oodb_object::Value;
use oodb_storage::{Store, StoreError};
use std::borrow::Cow;

/// Evaluates an operand against a row. Constants and stored attributes
/// are borrowed, not cloned; only a variable's own reference is built.
pub fn eval_operand<'a>(
    store: &'a Store,
    row: &impl Row,
    op: &'a Operand,
) -> Result<Cow<'a, Value>, StoreError> {
    Ok(match op {
        Operand::Const(v) => Cow::Borrowed(v),
        Operand::Attr { var, field } | Operand::RefField { var, field } => {
            Cow::Borrowed(store.try_read_field(row.get(*var), *field)?)
        }
        Operand::VarOid(v) | Operand::VarRef(v) => Cow::Owned(Value::Ref(row.get(*v))),
    })
}

/// Evaluates one interned predicate (a conjunction) against a row.
/// Returns `(result, terms_evaluated)` — the count feeds CPU accounting.
pub fn eval_pred(
    store: &Store,
    env: &QueryEnv,
    row: &impl Row,
    pred: PredId,
) -> Result<(bool, u64), StoreError> {
    // Lock-free arena lookup: a stable `&Pred`, no lock and no clone on
    // this once-per-row path.
    let p = env.preds.pred(pred);
    let mut evaluated = 0;
    for t in &p.terms {
        evaluated += 1;
        let l = eval_operand(store, row, &t.left)?;
        let r = eval_operand(store, row, &t.right)?;
        let holds = match l.partial_cmp_val(&r) {
            Some(ord) => t.op.test(ord),
            None => false, // incomparable (NULL-ish) ⇒ predicate fails
        };
        if !holds {
            return Ok((false, evaluated));
        }
    }
    Ok((true, evaluated))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuple::Batch;
    use oodb_algebra::{CmpOp, QueryBuilder};
    use oodb_object::paper::paper_model;
    use oodb_storage::{generate_paper_db, GenConfig};

    #[test]
    fn operand_and_pred_eval_against_store() {
        let (store, m) = generate_paper_db(GenConfig::small());
        let _ = paper_model();
        let mut qb = QueryBuilder::new(m.schema.clone(), m.catalog.clone());
        let (_, c) = qb.get(m.ids.cities, "c");
        let (_, cm) = {
            let (p, cm) = qb.mat(
                oodb_algebra::LogicalPlan::leaf(oodb_algebra::LogicalOp::Get {
                    coll: m.ids.cities,
                    var: c,
                }),
                c,
                m.ids.city_mayor,
                "cm",
            );
            (p, cm)
        };
        let env = qb.into_env();

        let city = store.members(m.ids.cities)[0];
        let mayor = store
            .read_field(city, m.ids.city_mayor)
            .as_ref_oid()
            .unwrap();
        let mut b = Batch::scan(env.scopes.len(), c, vec![city]);
        b.bind(cm, vec![mayor]);
        let t = b.row(0);

        // RefField equality against VarOid: c.mayor == cm.self holds.
        let pred = env.preds.cmp(
            Operand::RefField {
                var: c,
                field: m.ids.city_mayor,
            },
            CmpOp::Eq,
            Operand::VarOid(cm),
        );
        let (ok, n) = eval_pred(&store, &env, &t, pred).unwrap();
        assert!(ok);
        assert_eq!(n, 1);

        // Attribute read matches direct store access.
        let attr = Operand::Attr {
            var: cm,
            field: m.ids.person_name,
        };
        let name = eval_operand(&store, &t, &attr).unwrap();
        assert_eq!(&*name, store.read_field(mayor, m.ids.person_name));
    }

    #[test]
    fn dangling_reference_is_a_typed_error() {
        let (store, m) = generate_paper_db(GenConfig::small());
        let mut qb = QueryBuilder::new(m.schema.clone(), m.catalog.clone());
        let (_, c) = qb.get(m.ids.cities, "c");
        let env = qb.into_env();

        // Fabricate an OID one past the city population: same type, no
        // backing object — exactly what a partially replayed log yields.
        let city_count = store.members(m.ids.cities).len() as u32;
        let ghost = oodb_object::Oid::new(m.ids.city, city_count + 7);
        let b = Batch::scan(env.scopes.len(), c, vec![ghost]);
        let t = b.row(0);

        let attr = Operand::Attr {
            var: c,
            field: m.ids.city_name,
        };
        let res = eval_operand(&store, &t, &attr);
        assert!(matches!(res, Err(StoreError::UnknownOid(_))));
    }
}
