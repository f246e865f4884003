"""Seeded input generators for the benchmark's four workloads.

Everything the program under test receives is produced here from the
``--seed`` argument: openCypher statement text plus parameters, and the
CREATE TRIGGER texts.  Each generator also returns what it knows the
answers must be, so the checks in :mod:`checks` never ask the program to
grade itself.

The COVID statements and the six Section 6.2 triggers follow the paper's
running example (the same shapes as the repository's S62 experiment), with
the random choices drawn from the seed: which mutations carry a critical
effect, which lineage each sequence joins, and which WHO designation each
lineage change assigns.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any

Statement = tuple[str, dict[str, Any]]

SACCO = "Sacco"
REGION = "Lombardy"
HOSPITALS = ("Sacco", "Meyer", "Niguarda")
ICU_BEDS = 8

# ---------------------------------------------------------------------------
# The six Section 6.2 triggers, with the thresholds of the S62 experiment
# ---------------------------------------------------------------------------

NEW_CRITICAL_MUTATION = """
CREATE TRIGGER NewCriticalMutation
AFTER CREATE ON 'Mutation' FOR EACH NODE
WHEN EXISTS (NEW)-[:Risk]-(:CriticalEffect)
BEGIN
  CREATE (:Alert {time: datetime(), desc: 'New critical mutation', mutation: NEW.name})
END
"""

NEW_CRITICAL_LINEAGE = """
CREATE TRIGGER NewCriticalLineage
AFTER CREATE ON 'BelongsTo' FOR EACH RELATIONSHIP
WHEN
  MATCH (s:Sequence)-[NEW]-(l:Lineage)
  WHERE EXISTS { MATCH (:CriticalEffect)-[:Risk]-(:Mutation)-[:FoundIn]-(s) }
BEGIN
  CREATE (:Alert {time: datetime(), desc: 'New critical lineage', lineage: l.name})
END
"""

WHO_DESIGNATION_CHANGE = """
CREATE TRIGGER WhoDesignationChange
AFTER SET ON 'Lineage'.'whoDesignation' FOR EACH NODE
WHEN OLD.whoDesignation <> NEW.whoDesignation
BEGIN
  CREATE (:Alert {time: datetime(), desc: 'New Designation for an existing Lineage'})
END
"""

ICU_PATIENTS_OVER_THRESHOLD = """
CREATE TRIGGER IcuPatientsOverThreshold
AFTER CREATE ON 'IcuPatient' FOR ALL NODES
WHEN
  MATCH (p:HospitalizedPatient:IcuPatient)-[:TreatedAt]-(:Hospital {name: 'Sacco'})
  WITH count(DISTINCT p) AS icuPat
  WHERE icuPat > 10
BEGIN
  CREATE (:Alert {time: datetime(), desc: 'ICU patients at Sacco Hospital are more than 10'})
END
"""

ICU_PATIENT_INCREASE = """
CREATE TRIGGER IcuPatientIncrease
AFTER CREATE ON 'IcuPatient' FOR ALL NODES
WHEN
  MATCH (p:HospitalizedPatient:IcuPatient)-[:TreatedAt]-(:Hospital {name: 'Sacco'})
  MATCH (pn:NEWNODES)-[:TreatedAt]-(:Hospital {name: 'Sacco'})
  WITH count(DISTINCT pn) AS NewIcuPat, count(DISTINCT p) AS TotalIcuPat
  WHERE NewIcuPat * 1.0 / TotalIcuPat > 0.25
BEGIN
  CREATE (:Alert {time: datetime(), desc: 'ICU patients at Sacco Hospital have increased by > 25%'})
END
"""

ICU_PATIENT_MOVE = """
CREATE TRIGGER IcuPatientMove
AFTER CREATE ON 'IcuPatient' FOR ALL NODES
WHEN
  MATCH (p:HospitalizedPatient:IcuPatient)-[:TreatedAt]-(h:Hospital {name: 'Sacco'})
  WITH h, count(DISTINCT p) AS TotalIcuPat
  WHERE TotalIcuPat > h.icuBeds
BEGIN
  MATCH (pt:HospitalizedPatient:IcuPatient)-[:TreatedAt]-(:Hospital {name: 'Meyer'})
  WITH count(DISTINCT pt) AS destinationIcu
  MATCH (ht:Hospital {name: 'Meyer'})
  MATCH (pn:NEWNODES)-[c:TreatedAt]-(:Hospital {name: 'Sacco'})
  WITH ht, destinationIcu, count(DISTINCT pn) AS newIcuSource
  WHERE newIcuSource + destinationIcu <= ht.icuBeds
  MATCH (p:NEWNODES)-[c:TreatedAt]-(:Hospital {name: 'Sacco'})
  DELETE c
  CREATE (p)-[:TreatedAt]->(ht)
END
"""

SECTION62_TRIGGERS = (
    NEW_CRITICAL_MUTATION,
    NEW_CRITICAL_LINEAGE,
    WHO_DESIGNATION_CHANGE,
    ICU_PATIENTS_OVER_THRESHOLD,
    ICU_PATIENT_INCREASE,
    ICU_PATIENT_MOVE,
)

#: Fires on every Event creation (one Audit node per Event).
AUDIT_TRIGGER = """
CREATE TRIGGER AuditEvent
AFTER CREATE ON 'Event' FOR EACH NODE
BEGIN
  CREATE (:Audit {event: NEW.key})
END
"""

#: Activates on every Event value SET but never fires: values are never negative.
NEGATIVE_VALUE_TRIGGER = """
CREATE TRIGGER NegativeValue
AFTER SET ON 'Event'.'value' FOR EACH NODE
WHEN NEW.value < 0
BEGIN
  CREATE (:Alert {desc: 'negative event value', event: NEW.key})
END
"""

# ---------------------------------------------------------------------------
# covid_triggers / read_mix: the COVID population
# ---------------------------------------------------------------------------

DESIGNATIONS = ("Alpha", "Beta", "Gamma", "Delta", "Kappa")


@dataclass
class CovidPopulation:
    """The statements that build the COVID graph, and what they leave behind."""

    setup: list[Statement] = field(default_factory=list)
    stream: list[Statement] = field(default_factory=list)
    protein: dict[str, str] = field(default_factory=dict)
    lineage_of: dict[str, str] = field(default_factory=dict)
    designation: dict[str, str] = field(default_factory=dict)
    found_in: dict[str, str] = field(default_factory=dict)
    #: How often each Section 6.2.1 trigger must execute its action in one
    #: replay of ``stream``, as the generator's own choices determine it.
    executions: dict[str, int] = field(default_factory=dict)


#: Between rounds: back to the hospital ring, so every round sees the same graph.
RESET_COVID = "MATCH (n) WHERE NOT n:Hospital AND NOT n:Region DETACH DELETE n"


def hospital_ring() -> list[Statement]:
    """A ring of three Lombardy hospitals with eight ICU beds each."""
    statements: list[Statement] = [("MERGE (:Region {name: $region})", {"region": REGION})]
    for name in HOSPITALS:
        statements.append(
            (
                "MATCH (r:Region {name: $region}) "
                "CREATE (:Hospital {name: $name, icuBeds: $beds})-[:LocatedIn]->(r)",
                {"region": REGION, "name": name, "beds": ICU_BEDS},
            )
        )
    for index, name in enumerate(HOSPITALS):
        statements.append(
            (
                "MATCH (a:Hospital {name: $a}), (b:Hospital {name: $b}) "
                "CREATE (a)-[:ConnectedTo {distance: $distance}]->(b)",
                {"a": name, "b": HOSPITALS[(index + 1) % len(HOSPITALS)],
                 "distance": 50 + 10 * index},
            )
        )
    return statements


def covid_population(
    seed: int,
    mutations: int = 300,
    sequences: int = 200,
    lineages: int = 4,
    designation_changes: int = 60,
    icu_admissions: int = 120,
) -> CovidPopulation:
    """The four Section 6.2 streams, in the paper's order.

    Mutation discovery (30% linked to a critical effect), lineage
    assignment (every fourth sequence carries a critical mutation),
    WHO designation changes (a fifth re-assign the current value, so
    ``WhoDesignationChange`` is suppressed), and ICU admissions at Sacco
    in batches of three (the set-granularity triggers).
    """
    rng = random.Random(seed)
    pop = CovidPopulation(setup=hospital_ring())
    pop.executions = dict.fromkeys(
        ("NewCriticalMutation", "NewCriticalLineage", "WhoDesignationChange"), 0
    )
    out = pop.stream
    tag = f"{rng.randrange(16 ** 4):04x}"

    out.append(("MERGE (:CriticalEffect {description: 'Enhanced infectivity'})", {}))
    for index in range(mutations):
        name = f"Spike:M{index:05d}{tag}"
        pop.protein[name] = "Spike"
        if rng.random() < 0.3:
            pop.executions["NewCriticalMutation"] += 1
            out.append(
                (
                    "MATCH (c:CriticalEffect {description: 'Enhanced infectivity'}) "
                    "CREATE (:Mutation {name: $name, protein: 'Spike'})-[:Risk]->(c)",
                    {"name": name},
                )
            )
        else:
            out.append(("CREATE (:Mutation {name: $name, protein: 'Spike'})", {"name": name}))

    out.append(("MERGE (:CriticalEffect {description: 'Immune escape'})", {}))
    lineage_names = [f"B.1.{index + 1}" for index in range(lineages)]
    for name in lineage_names:
        out.append(("CREATE (:Lineage {name: $name})", {"name": name}))
    for index in range(sequences):
        accession = f"EPI_ISL_{500000 + index}{tag}"
        out.append(("CREATE (:Sequence {accession: $accession})", {"accession": accession}))
        if index % 4 == 0:
            # A Spike mutation with a Risk edge, found in this sequence: both
            # NewCriticalMutation and, at assignment, NewCriticalLineage fire.
            pop.executions["NewCriticalMutation"] += 1
            pop.executions["NewCriticalLineage"] += 1
            critical = f"Spike:C{index:04d}T{tag}"
            other = f"N:C{index:04d}A{tag}"
            pop.protein[critical] = "Spike"
            pop.protein[other] = "N"
            pop.found_in[critical] = accession
            pop.found_in[other] = accession
            out.append(
                (
                    "MATCH (s:Sequence {accession: $accession}), "
                    "(c:CriticalEffect {description: 'Immune escape'}) "
                    "CREATE (:Mutation {name: $mutation, protein: 'Spike'})-[:Risk]->(c), "
                    "(:Mutation {name: $other, protein: 'N'})-[:FoundIn]->(s)",
                    {"accession": accession, "mutation": critical, "other": other},
                )
            )
            out.append(
                (
                    "MATCH (s:Sequence {accession: $accession}), "
                    "(m:Mutation {name: $mutation}) CREATE (m)-[:FoundIn]->(s)",
                    {"accession": accession, "mutation": critical},
                )
            )
        lineage = rng.choice(lineage_names)
        pop.lineage_of[accession] = lineage
        out.append(
            (
                "MATCH (s:Sequence {accession: $accession}), (l:Lineage {name: $lineage}) "
                "CREATE (s)-[:BelongsTo]->(l)",
                {"accession": accession, "lineage": lineage},
            )
        )

    for index in range(designation_changes):
        name = f"B.1.617.{index + 1}"
        initial = rng.choice(DESIGNATIONS)
        final = initial if rng.random() < 0.2 else rng.choice(
            [d for d in DESIGNATIONS if d != initial]
        )
        pop.designation[name] = final
        pop.executions["WhoDesignationChange"] += final != initial
        out.append(
            (
                "CREATE (:Lineage {name: $name, whoDesignation: $designation})",
                {"name": name, "designation": initial},
            )
        )
        out.append(
            (
                "MATCH (l:Lineage {name: $name}) SET l.whoDesignation = $designation",
                {"name": name, "designation": final},
            )
        )

    for start in range(0, icu_admissions, 3):
        ssns = [f"ICU{index:05d}{tag}" for index in range(start, min(start + 3, icu_admissions))]
        out.append(
            (
                "MATCH (h:Hospital {name: $hospital}) "
                "UNWIND $ssns AS ssn "
                "CREATE (:Patient:HospitalizedPatient:IcuPatient "
                "{ssn: ssn, prognosis: 'severe', admittedToICU: true})-[:TreatedAt]->(h)",
                {"hospital": SACCO, "ssns": ssns},
            )
        )
    return pop


# ---------------------------------------------------------------------------
# read_mix: reads over the COVID population
# ---------------------------------------------------------------------------

#: Indexes on every key the reads look up.
READ_INDEXES = (
    ("Mutation", "name"),
    ("Sequence", "accession"),
    ("Lineage", "name"),
    ("Hospital", "name"),
    ("Patient", "ssn"),
)

POINT_PROTEIN = "MATCH (m:Mutation {name: $name}) RETURN m.protein AS protein"
ONE_HOP_LINEAGE = (
    "MATCH (s:Sequence {accession: $accession})-[:BelongsTo]->(l:Lineage) "
    "RETURN l.name AS lineage"
)
TWO_HOP_LINEAGE = (
    "MATCH (m:Mutation {name: $name})-[:FoundIn]->(s:Sequence)-[:BelongsTo]->(l:Lineage) "
    "RETURN s.accession AS accession, l.name AS lineage"
)
POINT_DESIGNATION = (
    "MATCH (l:Lineage {name: $name}) RETURN l.whoDesignation AS designation"
)
SCAN_LINEAGE_SIZES = (
    "MATCH (s:Sequence)-[:BelongsTo]->(l:Lineage) "
    "RETURN l.name AS lineage, count(s) AS n ORDER BY lineage"
)


@dataclass
class ReadOp:
    """One read: statement, parameters and the rows it must return."""

    query: str
    parameters: dict[str, Any]
    expected: list[tuple]


def read_stream(pop: CovidPopulation, seed: int, count: int) -> list[ReadOp]:
    """``count`` reads: 88% parameterised hits, 10% inlined literals, 2% scans.

    Scans and literals sit at fixed positions (every 50th and every 10th
    read), so every seed gets the same mix.  The inlined-literal reads
    walk a seeded permutation of every mutation name, so the same text
    recurs only after more distinct texts than the plan cache holds (512
    entries): they always miss.
    """
    rng = random.Random(seed * 7919 + 1)
    names = sorted(pop.protein)
    accessions = sorted(pop.lineage_of)
    found = sorted(pop.found_in)
    lineages = sorted(pop.designation)
    literal_order = names[:]
    rng.shuffle(literal_order)
    sizes: dict[str, int] = {}
    for lineage in pop.lineage_of.values():
        sizes[lineage] = sizes.get(lineage, 0) + 1
    lineage_sizes = sorted(sizes.items())

    ops: list[ReadOp] = []
    literal_next = 0
    for position in range(count):
        roll = rng.random()
        if position % 50 == 25:
            ops.append(ReadOp(SCAN_LINEAGE_SIZES, {}, lineage_sizes))
        elif position % 10 == 3:
            name = literal_order[literal_next % len(literal_order)]
            literal_next += 1
            ops.append(
                ReadOp(
                    f"MATCH (m:Mutation {{name: '{name}'}}) RETURN m.protein AS protein",
                    {}, [(pop.protein[name],)],
                )
            )
        elif roll < 0.4:
            name = rng.choice(names)
            ops.append(ReadOp(POINT_PROTEIN, {"name": name}, [(pop.protein[name],)]))
        elif roll < 0.7:
            accession = rng.choice(accessions)
            ops.append(
                ReadOp(ONE_HOP_LINEAGE, {"accession": accession}, [(pop.lineage_of[accession],)])
            )
        elif roll < 0.85:
            name = rng.choice(found)
            accession = pop.found_in[name]
            expected = [(accession, pop.lineage_of[accession])]
            ops.append(ReadOp(TWO_HOP_LINEAGE, {"name": name}, expected))
        else:
            name = rng.choice(lineages)
            ops.append(ReadOp(POINT_DESIGNATION, {"name": name}, [(pop.designation[name],)]))
    return ops


# ---------------------------------------------------------------------------
# durable_writes / http_mixed: Event writes
# ---------------------------------------------------------------------------

CREATE_EVENT = "CREATE (:Event {key: $key, value: $value})"
SET_EVENT = "MATCH (e:Event {key: $key}) SET e.value = $value"
READ_EVENT = "MATCH (e:Event {key: $key}) RETURN e.value AS value"
PRELOAD_EVENTS = "UNWIND $rows AS row CREATE (:Event {key: row.key, value: row.value})"


#: Between rounds: drop the Events a round created (keys ``W...``) and their Audits.
RESET_DURABLE = (
    "MATCH (n) WHERE (n:Event AND n.key STARTS WITH 'W') "
    "OR (n:Audit AND n.event STARTS WITH 'W') DETACH DELETE n"
)


def event_key(prefix: str, index: int) -> str:
    return f"{prefix}{index:07d}"


def preload_events(seed: int, count: int) -> tuple[Statement, dict[str, int]]:
    """One statement creating ``count`` Events with seeded values, and key → value."""
    rng = random.Random(seed * 31 + 7)
    values = {event_key("P", index): rng.randrange(1_000_000) for index in range(count)}
    rows = [{"key": key, "value": value} for key, value in values.items()]
    return (PRELOAD_EVENTS, {"rows": rows}), values


def durable_write_stream(
    seed: int, round_index: int, count: int, preloaded: list[str]
) -> list[Statement]:
    """Half CREATEs of new Events, half SETs of an indexed key already written."""
    rng = random.Random((seed * 1_000_003 + round_index) * 17)
    keys = list(preloaded)
    statements: list[Statement] = []
    for index in range(count):
        if rng.random() < 0.5:
            key = event_key(f"W{round_index}-", index)
            keys.append(key)
            statements.append((CREATE_EVENT, {"key": key, "value": rng.randrange(1_000_000)}))
        else:
            statements.append(
                (SET_EVENT, {"key": rng.choice(keys), "value": rng.randrange(1_000_000)})
            )
    return statements


def http_op_stream(seed: int, client: int, count: int, preloaded: dict[str, int]):
    """One connection's requests: ~90% point reads of preloaded keys, ~10% CREATEs.

    Yields ``(query, parameters, expected_value_or_None)``; a CREATE's key
    is unique to the connection, so acknowledged writes can be counted.
    """
    rng = random.Random((seed * 1_000_003 + client) * 13 + 5)
    keys = sorted(preloaded)
    created = 0
    for _ in range(count):
        if rng.random() < 0.1:
            key = event_key(f"C{client}-", created)
            created += 1
            yield CREATE_EVENT, {"key": key, "value": rng.randrange(1_000_000)}, None
        else:
            key = rng.choice(keys)
            yield READ_EVENT, {"key": key}, preloaded[key]
