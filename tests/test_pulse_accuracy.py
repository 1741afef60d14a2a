"""Accuracy of pulse_product against 40-digit reference products.

The references below are u e^{a_1 X t} u e^{a_2 X t} ... at N = 1024,
computed with mpmath at 60-digit working precision from the exact binary
values of u, X, t and the float weights, and printed to 40 digits; the
qubit-z-x ones agree with the closed-form factors cos(at) I - i sin(at)
sigma_x to 1e-40.  mpmath is not a dependency, so they are constants.

The stacked route (one expm call over the scalar multiples a t of X,
whose small ones share a Taylor sum, and a pairwise chain product) is
held to within 4x of the per-pulse route it replaced (per-weight
scipy.linalg.expm calls, one matrix product at a time), entry by entry
in the worst entry.
"""

from fractions import Fraction
import math

import numpy as np
import pytest

from ergopulse import matrixcore
from ergopulse.cli import PRESETS
from ergopulse.evolution import PulseSystem, pulse_product
from ergopulse.schedules import equidistant, pathological, uhrig

import oracles

N = 1024
ROWS = {"uniform": equidistant, "uhrig": uhrig, "pathological": pathological}
SYSTEMS = {
    "qubit-z-x": PRESETS["qubit-z-x"](1.1),
    # a d = 3 normal generator -iH with dyadic entries, a cyclic-shift
    # pulse and complex t
    "normal-d3": PulseSystem(
        u=np.array([[0, 0, 1], [1, 0, 0], [0, 1, 0]], dtype=np.complex128),
        generator=-1j
        * np.array(
            [
                [0.5, 0.25 - 0.5j, 0.125j],
                [0.25 + 0.5j, -0.25, 0.75],
                [-0.125j, 0.75, 0.375],
            ]
        ),
        t=0.9 - 0.3j,
    ),
}

# Row-major entries of each reference product, real then imaginary part.
REFERENCE = {
    ("qubit-z-x", "uniform"): [
        "9.999998254658185143860992416496177539471e-1",
        "-5.908193690954356416679723247981136166672e-4",
        "-6.346694882702624533156404807956236528278e-7",
        "-6.346694882702624533156404807956236528278e-7",
        "6.346694882702624533156404807956236528278e-7",
        "-6.346694882702624533156404807956236528278e-7",
        "9.999998254658185143860992416496177539471e-1",
        "5.908193690954356416679723247981136166672e-4",
    ],
    ("qubit-z-x", "uhrig"): [
        "9.999997343473947470548338756543348793265e-1",
        "-7.28897619791321179779041167121721369619e-4",
        "2.588416227178825944506887781941562544017e-6",
        "2.588416227178825944506887781941562544017e-6",
        "-2.588416227178825944506887781941562544017e-6",
        "2.588416227178825944506887781941562544017e-6",
        "9.999997343473947470548338756543348793265e-1",
        "7.28897619791321179779041167121721369619e-4",
    ],
    ("qubit-z-x", "pathological"): [
        "9.999999999993348554582311076838685108391e-1",
        "-1.15337892698522952709569595291728278215e-6",
        "-1.209942645725458130874823785706436468785e-12",
        "-2.476756402803710259873347118494337128037e-9",
        "1.209942645725458130874823785706436468785e-12",
        "-2.476756402803710259873347118494337128037e-9",
        "9.999999999993348554582311076838685108391e-1",
        "1.15337892698522952709569595291728278215e-6",
    ],
    ("normal-d3", "uniform"): [
        "-3.435531588634156370521396951581274789599e-1",
        "-1.907975064032186214898080310125198296403e-1",
        "5.224853989555664796295667445408596623658e-2",
        "-2.704440051436068361135305461711931697257e-1",
        "8.337784011041637774718481305938545176019e-1",
        "-8.398624473847576273292418939698357538264e-2",
        "8.338815128087097195828677554870202962921e-1",
        "-8.396507648461161588936947566287336826254e-2",
        "-3.438226438729252070719048289912006401023e-1",
        "-1.907689498814833439228737677587641093538e-1",
        "5.238602510255646306710803357389601906127e-2",
        "-2.699275065817363119428973678576765848066e-1",
        "5.273002719789085170796511719906611970161e-2",
        "-2.702445517280579235988263675597575332486e-1",
        "8.339261718628950387034576118279478404283e-1",
        "-8.344044960393694396842643697455060989772e-2",
        "-3.435175785775033844229645799352739926937e-1",
        "-1.914248556162751588617249421612171041754e-1",
    ],
    ("normal-d3", "uhrig"): [
        "-3.436257697584099540600739943023119462751e-1",
        "-1.910031178728461416210753287570796239687e-1",
        "5.244128836810954005186791246509878989273e-2",
        "-2.701986056039029839602474030899492626424e-1",
        "8.338644086521106051892325787599443695532e-1",
        "-8.379896655542843896423044828942187878362e-2",
        "8.338647889423977890685054232475123788957e-1",
        "-8.37984656786566495665336348340724580155e-2",
        "-3.436254993050676043054678276226698080423e-1",
        "-1.910026424853902668152250879128330763499e-1",
        "5.244102625449657564069964033164297962496e-2",
        "-2.701993982493010225044551859593246808298e-1",
        "5.244119232945160240005102989775677190075e-2",
        "-2.701989926091023320497531786394222652854e-1",
        "8.338644508637080320930214804161514374642e-1",
        "-8.379934261963511991210694944401548029832e-2",
        "-3.436255813172347234327710249678793885082e-1",
        "-1.910022732754559253566443592941021383051e-1",
    ],
    ("normal-d3", "pathological"): [
        "-3.439283941064981482122144078460124568443e-1",
        "-1.900706059121338690585122993627744939889e-1",
        "5.207873278511583624119429196424477104784e-2",
        "-2.702083772037578863718606838513039337385e-1",
        "8.33702565720136576191263438782642444003e-1",
        "-8.448946453046994479051311529114185104579e-2",
        "8.339985023216216256992051068811582843874e-1",
        "-8.339892013941641375774621358350219989617e-2",
        "-3.438572561148786324080682130600926143654e-1",
        "-1.913241337295155777412166620122377720932e-1",
        "5.3041106832175611035309959338836649185e-2",
        "-2.698101345525342969071770422781029329254e-1",
        "5.27677099701209357269243208576581107651e-2",
        "-2.708410440450166551108957506297093019987e-1",
        "8.337919184256386952916566422951428129851e-1",
        "-8.344207849385735146933449458798265791353e-2",
        "-3.433184040486374830976126150802069024839e-1",
        "-1.913828415349768757327024035513295058394e-1",
    ],
}


def _max_entry_error(m, reference):
    """Largest |m_ij - ref_ij|, with each difference taken exactly."""
    worst = 0.0
    for k, z in enumerate(m.reshape(-1)):
        re = float(Fraction(reference[2 * k]) - Fraction(float(z.real)))
        im = float(Fraction(reference[2 * k + 1]) - Fraction(float(z.imag)))
        worst = max(worst, math.hypot(re, im))
    return worst


@pytest.mark.parametrize("system, row", list(REFERENCE))
def test_pulse_product_within_4x_of_per_pulse_route(system, row):
    sys = SYSTEMS[system]
    s = ROWS[row](N)
    values, idx = np.unique(s.weights, return_inverse=True)
    per_weight = np.stack(
        [matrixcore.expm(v * sys.t * sys.generator) for v in values]
    )
    per_pulse = oracles.chain_product(sys.u, per_weight, idx)
    old = _max_entry_error(per_pulse, REFERENCE[system, row])
    new = _max_entry_error(pulse_product(sys, s), REFERENCE[system, row])
    # both routes sit at roundoff level, which also vouches for the constants
    assert old <= 1e-13
    assert new <= 4.0 * old
