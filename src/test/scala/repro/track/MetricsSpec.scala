package repro.track

import org.scalacheck.Gen
import repro.{PropHelpers, SparkSpec}

class MetricsSpec extends SparkSpec with PropHelpers {

  private def tr(frame: Int, track: Long, did: Long, oid: Long = 0L, scene: Long = 0L): TrackedRow =
    TrackedRow(scene, frame, track, did, oid, "car", 0, 0)

  test("identical tracks give AssA = 1") {
    val rows = (0 until 10).map(f => tr(f, 1, f))
    assert(Metrics.assA(rows, rows) === 1.0)
  }

  test("a track split in half gives AssA ~ 0.5") {
    val gt = (0 until 10).map(f => tr(f, 1, f))
    val pr = (0 until 5).map(f => tr(f, 1, f)) ++ (5 until 10).map(f => tr(f, 2, f))
    val assa = Metrics.assA(gt, pr)
    // Each matched det: TPA=5, gtN=10, prN=5 -> 5/10 = 0.5.
    assert(math.abs(assa - 0.5) < 1e-9, s"assa $assa")
  }

  test("two gt tracks merged into one prediction track are penalized") {
    val gt = (0 until 10).map(f => tr(f, 1, f)) ++ (0 until 10).map(f => tr(f, 2, 100 + f))
    val pr = gt.map(_.copy(trackId = 7))
    val assa = Metrics.assA(gt, pr)
    // TPA=10, gtN=10, prN=20 -> 10/20 = 0.5.
    assert(math.abs(assa - 0.5) < 1e-9)
  }

  test("missing detections in the prediction reduce AssA via gtN") {
    val gt = (0 until 10).map(f => tr(f, 1, f))
    val pr = (0 until 5).map(f => tr(f, 1, f)) // half the dets missing
    val assa = Metrics.assA(gt, pr)
    // Matched dets: TPA=5, gtN=10, prN=5 -> 5/10.
    assert(math.abs(assa - 0.5) < 1e-9)
  }

  test("AssA of disjoint det sets is 0 (no matches)") {
    val gt = (0 until 5).map(f => tr(f, 1, f))
    val pr = (0 until 5).map(f => tr(f, 1, 1000 + f))
    assert(Metrics.assA(gt, pr) === 0.0)
  }

  test("AssA respects scene boundaries") {
    val gt = (0 until 5).map(f => tr(f, 1, f, scene = 0)) ++ (0 until 5).map(f => tr(f, 1, f, scene = 1))
    val pr = gt
    assert(Metrics.assA(gt, pr) === 1.0)
  }

  /** One scene's gt tracks (dids and track ids restart in every scene)
    * and a prediction made from them: tracks split at a cut, merged into
    * another track and relabelled; detections dropped; detections only
    * the prediction has; and, now and then, dids disjoint from gt's.
    */
  private type Scene = (Seq[TrackedRow], Seq[TrackedRow])

  private def sceneGen(scene: Long): Gen[Scene] = for {
    nTracks  <- Gen.choose(1, 5)
    lens     <- Gen.listOfN(nTracks, Gen.choose(1, 12))
    cuts     <- Gen.listOfN(nTracks, Gen.choose(1, 14))
    mergeTo  <- Gen.listOfN(nTracks, Gen.frequency(3 -> None, 1 -> Gen.some(Gen.choose(1, nTracks))))
    relabel  <- Gen.choose(0L, 20L)
    keep     <- Gen.listOfN(lens.sum, Gen.frequency(4 -> true, 1 -> false))
    extra    <- Gen.listOfN(3, Gen.choose(0L, 12L)).flatMap(ts => Gen.choose(0, 3).map(ts.take))
    disjoint <- Gen.frequency(4 -> false, 1 -> true)
  } yield {
    val gt = lens.zipWithIndex.flatMap { case (n, t) => (0 until n).map(i => (t, i)) }.zipWithIndex.map {
      case ((t, i), did) => tr(i, t + 1L, did.toLong, scene = scene)
    }
    val moved = gt.map { r =>
      val t    = (r.trackId - 1).toInt
      val base = mergeTo(t).fold(r.trackId)(_.toLong)
      r.copy(trackId = base * 2 + (if (r.frameIdx >= cuts(t)) 1 else 0) + relabel,
             did = if (disjoint) r.did + 1000 else r.did)
    }
    val extras = extra.zipWithIndex.map { case (t, j) => tr(j, t, 500L + j, scene = scene) }
    (gt, moved.zip(keep).collect { case (r, true) => r } ++ extras)
  }

  test("property: driver-side AssA equals the Spark plan's on generated tracks") {
    import spark.implicits._
    val gen = Gen.choose(1, 3).flatMap(n => Gen.sequence[List[Scene], Scene]((0 until n).map(s => sceneGen(s.toLong))))
    var unmatched = 0
    forAllG(gen, trials = 30) { scenes =>
      val gt = scenes.flatMap(_._1); val pr = scenes.flatMap(_._2)
      val expected = AssaReference.assA(spark, gt.toDF(), pr.toDF())
      val got      = Metrics.assA(gt, pr)
      assert(math.abs(got - expected) < 1e-12, s"driver $got vs Spark $expected")
      if (expected == 0.0) unmatched += 1
    }
    assert(unmatched > 0, "no generated case had disjoint detections")
  }

  test("gapOutcomes counts continuity TPs") {
    val gt = Map(0 -> Map(1L -> 10L), 5 -> Map(1L -> 10L))
    val pr = Map(0 -> Map(1L -> 20L), 5 -> Map(1L -> 20L))
    val out = Metrics.gapOutcomes(gt, pr, Seq(0, 5))
    assert(out === Seq((4, 1L, 0L, 0L)))
  }

  test("gapOutcomes counts FN when the prediction splits a continuous track") {
    val gt = Map(0 -> Map(1L -> 10L), 5 -> Map(1L -> 10L))
    val pr = Map(0 -> Map(1L -> 20L), 5 -> Map(1L -> 21L))
    val out = Metrics.gapOutcomes(gt, pr, Seq(0, 5))
    assert(out === Seq((4, 0L, 0L, 1L)))
  }

  test("gapOutcomes counts FP when the prediction bridges a broken track") {
    val gt = Map(0 -> Map(1L -> 10L), 5 -> Map(1L -> 11L))
    val pr = Map(0 -> Map(1L -> 20L), 5 -> Map(1L -> 20L))
    val out = Metrics.gapOutcomes(gt, pr, Seq(0, 5))
    assert(out === Seq((4, 0L, 1L, 0L)))
  }

  test("gapOutcomes handles objects present at only one end") {
    val gt = Map(0 -> Map(1L -> 10L), 5 -> Map(2L -> 12L))
    val pr = Map(0 -> Map(1L -> 20L), 5 -> Map(2L -> 22L))
    val out = Metrics.gapOutcomes(gt, pr, Seq(0, 5))
    // Neither object is continuous in gt nor pr: no TP/FP/FN.
    assert(out === Seq((4, 0L, 0L, 0L)))
  }

  test("SkipStats F1") {
    assert(Metrics.SkipStats(1, tp = 5, fp = 0, fn = 0, gaps = 5).f1 === 1.0)
    assert(Metrics.SkipStats(1, tp = 0, fp = 0, fn = 0, gaps = 0).f1 === 1.0)
    assert(math.abs(Metrics.SkipStats(1, tp = 1, fp = 1, fn = 1, gaps = 3).f1 - 0.5) < 1e-9)
  }
}
