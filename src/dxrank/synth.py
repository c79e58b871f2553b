"""Synthetic EHR generator with planted comorbidity rules.

Produces a desk-scale dataset whose statistical structure a sequence model
can actually learn: chronic codes persist across visits, and planted rules
make a trigger code in one visit raise the probability that an onset code
appears in the next visit. Vocabulary ids are generated as ``CCS-<k>`` /
``ICD-<k>.<j>`` so prompts stay readable without real code tables.
"""
from __future__ import annotations

from .config import ComorbidityRule, SyntheticConfig, SyntheticConfigError, \
    ccs_vocabulary
from .ehr import Dataset, Ontology, PatientRecord, Visit
from .rng import Pcg64

# Probability that a patient's first visit is seeded with one rule trigger,
# so triggers are prevalent enough for rules to manifest at desk scale.
TRIGGER_SEED_PROB = 0.6

# Day gap between consecutive visits is drawn uniformly from this range.
DAY_GAP_RANGE = (3, 45)


def _synthetic_ontology(cfg: SyntheticConfig) -> Ontology:
    icd_to_ccs: dict[str, str] = {}
    icd_names: dict[str, str] = {}
    ccs_names: dict[str, str] = {}
    for ccs in ccs_vocabulary(cfg.n_ccs):
        ccs_names[ccs] = ccs
        k = ccs.split("-", 1)[1]
        for j in range(1, cfg.icd_per_ccs + 1):
            icd = f"ICD-{k}.{j}"
            icd_to_ccs[icd] = ccs
            icd_names[icd] = icd
    return Ontology(icd_to_ccs=icd_to_ccs, icd_names=icd_names, ccs_names=ccs_names)


def generate_synthetic(cfg: SyntheticConfig) -> tuple[Dataset, Ontology]:
    """Generate (Dataset, Ontology) deterministically from `cfg.seed`.

    Visit construction per patient: a per-patient visit size is drawn once;
    the first visit samples codes uniformly (optionally seeded with a rule
    trigger), and each later visit keeps chronic survivors, adds fired rule
    onsets, and tops up with fresh uniform codes to the visit size.
    """
    ontology = _synthetic_ontology(cfg)
    vocab = ccs_vocabulary(cfg.n_ccs)
    rng = Pcg64(cfg.seed)

    id_width = max(5, len(str(cfg.n_patients)))
    patients: list[PatientRecord] = []
    for i in range(1, cfg.n_patients + 1):
        pid = f"P{i:0{id_width}d}"
        n_visits = rng.integers(cfg.visits_range[0], cfg.visits_range[1] + 1)
        size = rng.integers(cfg.codes_per_visit_range[0], cfg.codes_per_visit_range[1] + 1)

        first = set()
        if cfg.rules and rng.random() < TRIGGER_SEED_PROB:
            rule = cfg.rules[rng.integers(len(cfg.rules))]
            first.add(rule.trigger)
        first |= _fresh_codes(rng, vocab, first, size - len(first))

        ccs_visits = [first]
        for _ in range(n_visits - 1):
            prev = ccs_visits[-1]
            nxt = {c for c in sorted(prev) if rng.random() < cfg.chronic_rate}
            for rule in cfg.rules:
                if rule.trigger in prev and rng.random() < rule.q:
                    nxt.add(rule.onset)
            nxt |= _fresh_codes(rng, vocab, nxt, size - len(nxt))
            ccs_visits.append(nxt)

        day = 0
        visits = []
        for codes in ccs_visits:
            icds = [_pick_icd(rng, ontology, c) for c in sorted(codes)]
            visits.append(Visit(day=day, icd=tuple(icds), ccs=tuple(codes)))
            day += rng.integers(DAY_GAP_RANGE[0], DAY_GAP_RANGE[1] + 1)
        patients.append(PatientRecord(patient_id=pid, visits=tuple(visits)))

    return Dataset(patients=tuple(patients)), ontology


def _fresh_codes(
    rng: Pcg64, vocab: list[str], taken: set[str], need: int
) -> set[str]:
    """`need` distinct codes of `vocab` outside `taken`, drawn uniformly
    from the rest in `vocab`'s (sorted) order."""
    if need <= 0:
        return set()
    pool = [c for c in vocab if c not in taken]
    return {pool[j] for j in rng.sample(len(pool), min(need, len(pool)))}


def _pick_icd(rng: Pcg64, ontology: Ontology, ccs: str) -> str:
    children = ontology.ccs_to_icd[ccs]
    return children[rng.integers(len(children))]
