package repro.jobs

import org.scalatest.funsuite.AnyFunSuite

class JobSessionSpec extends AnyFunSuite {

  test("no argument gives the default scene count") {
    assert(JobSession.scenes(Array.empty, 24) === 24)
    assert(JobSession.scenes(Array("7"), 24) === 7)
  }

  test("a scene count that is not a positive integer is rejected") {
    Seq("0", "-3", "abc").foreach { a =>
      val e = intercept[IllegalArgumentException](JobSession.scenes(Array(a), 24))
      assert(e.getMessage.contains(s"'$a'") && e.getMessage.contains("positive integer"), a)
    }
  }
}
