"""Witness streams for first-order arithmetic, and the machinery around
them: a formula language, demand-driven witness streams with a budgeted
checker, stream combinators, a small witness-machine VM, proof-term
extraction, and adversarial games at desk scale."""

from .checker import (
    Budget,
    Probe,
    SynthesisFailed,
    Verdict,
    check_realizability,
    check_witness,
    synthesize_sigma03,
)
from .combinators import (
    apply_implication,
    box_decode,
    compose,
    decompose,
    normalize_strict,
    project_forall,
)
from .formula import Formula, classify, parse, parse_term, print_formula
from .realizers import (
    AXIOMS,
    Extraction,
    decider_code,
    extract,
    identity_code,
    infer,
    markov_realizer,
    parse_proof_text,
    search_realizer,
    ti_realizer,
)
from .vm import WCode, godel_decode, godel_encode, program, run_stream
from .witness import (
    IOPair,
    Prefix,
    Selector,
    TRIVIAL,
    WS,
    WitnessStream,
    semantic_content,
    serialize_items,
    shape_check,
)

__all__ = [
    "AXIOMS",
    "Budget",
    "Extraction",
    "Formula",
    "IOPair",
    "Prefix",
    "Probe",
    "Selector",
    "SynthesisFailed",
    "TRIVIAL",
    "Verdict",
    "WCode",
    "WS",
    "WitnessStream",
    "apply_implication",
    "box_decode",
    "check_realizability",
    "check_witness",
    "classify",
    "compose",
    "decider_code",
    "decompose",
    "extract",
    "godel_decode",
    "godel_encode",
    "identity_code",
    "infer",
    "markov_realizer",
    "normalize_strict",
    "parse",
    "parse_proof_text",
    "parse_term",
    "print_formula",
    "program",
    "project_forall",
    "run_stream",
    "search_realizer",
    "semantic_content",
    "serialize_items",
    "shape_check",
    "synthesize_sigma03",
    "ti_realizer",
]
