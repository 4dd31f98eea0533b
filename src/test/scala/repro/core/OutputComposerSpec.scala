package repro.core

import java.nio.file.{Files, Paths}
import org.scalatest.funsuite.AnyFunSuite
import repro.SparkSpec

class OutputComposerSpec extends SparkSpec {

  private def rows(frames: (Long, Int)*) = {
    import spark.implicits._
    frames.toSeq.toDF("sceneId", "frameIdx")
  }

  test("consecutive frames merge into one snippet") {
    val s = OutputComposer.snippets(rows((0L, 1), (0L, 2), (0L, 3)))
    assert(s === Seq(Snippet(0L, 1, 3)))
  }

  test("small gaps are bridged, large gaps split") {
    val s = OutputComposer.snippets(rows((0L, 1), (0L, 5), (0L, 40)))
    assert(s === Seq(Snippet(0L, 1, 5), Snippet(0L, 40, 40)))
  }

  test("scenes never merge") {
    val s = OutputComposer.snippets(rows((0L, 1), (1L, 2)))
    assert(s.toSet === Set(Snippet(0L, 1, 1), Snippet(1L, 2, 2)))
  }

  test("duplicate frames collapse") {
    val s = OutputComposer.snippets(rows((0L, 3), (0L, 3), (0L, 4)))
    assert(s === Seq(Snippet(0L, 3, 4)))
  }

  test("empty result yields no snippets") {
    assert(OutputComposer.snippets(rows()) === Seq.empty)
  }

  test("snippet frame counts") {
    assert(Snippet(0, 5, 9).nFrames === 5)
  }

  test("saveVideos writes a JSON-lines manifest") {
    val path = Files.createTempDirectory("snips").resolve("out.jsonl").toString
    val s = OutputComposer.saveVideos(rows((0L, 1), (0L, 2), (2L, 7)), path)
    assert(s.size === 2)
    val lines = new String(Files.readAllBytes(Paths.get(path))).split("\n")
    assert(lines.length === 2)
    assert(lines(0).contains("\"sceneId\": 0") && lines(0).contains("\"startFrame\": 1"))
  }

  test("getObjects returns the full samples of matched oids only") {
    import spark.implicits._
    val res = Seq((0L, 5, 10L), (0L, 6, 10L))
      .toDF("sceneId", "frameIdx", "car_oid")
    val objs = Seq(
      (0L, 1, 10L, "car", 1.0, 2.0),
      (0L, 2, 10L, "car", 1.5, 2.0),
      (0L, 1, 11L, "car", 9.0, 9.0))
      .toDF("sceneId", "frameIdx", "oid", "otype", "x", "y")
    val out = OutputComposer.getObjects(res, objs)
    assert(out.count() === 2L)
    assert(out.select("oid").distinct().collect().map(_.getLong(0)).toSet === Set(10L))
  }

  test("getObjects with multiple oid columns unions the matches") {
    import spark.implicits._
    val res  = Seq((0L, 5, 10L, 11L)).toDF("sceneId", "frameIdx", "c1_oid", "c2_oid")
    val objs = Seq(
      (0L, 1, 10L, "car", 1.0, 2.0),
      (0L, 1, 11L, "car", 2.0, 2.0),
      (0L, 1, 12L, "car", 3.0, 2.0))
      .toDF("sceneId", "frameIdx", "oid", "otype", "x", "y")
    val out = OutputComposer.getObjects(res, objs)
    assert(out.select("oid").distinct().collect().map(_.getLong(0)).toSet === Set(10L, 11L))
  }
}
